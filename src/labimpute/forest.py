"""Random forests over typed tables, built on hand-grown CART trees.

Trees split greedily: continuous features cut at the midpoints between
consecutive distinct values present in the node; categorical features
enumerate binary category partitions when the column has at most 10
categories and fall back to prefix cuts along the categories ordered by
mean target beyond that.  Regression trees score splits by sum-of-squares
reduction, classification trees by Gini impurity decrease.

Growth is level-wise, the exact-histogram scheme of LightGBM applied to
CART: one sort per fit rank-codes every continuous column, and one step
advances every open node of a batch of trees by one depth in a fixed number
of array passes, with no loop over nodes.  One sort of (node, feature, rank)
keys and one integer cumulative sum give the left class counts or target
sums of every run of equal codes: continuous cuts are scored at run ends,
and all categorical runs fill one histogram.  Regression targets are
centred and scaled per node and summed in fixed point, so every sum is
exact whichever nodes and trees share a step.

Randomness: every draw is a splitmix64 hash of counters (Random123 style).
Tree t's key hashes (seed mod 2**64, tag, t); row i of its bootstrap is the
high word of n times the hash of (key, i, tag), Lemire's range reduction; a
node takes the mtry features with the smallest hashes of (key, depth,
smallest bootstrap position in the node, feature).  A tree is thus a pure
function of (seed, tree index, data), whatever the batching.

Tie rule: gains within 1e-10 times the node's impurity of its best gain
tie, and the tie goes to the smallest feature index, then to the first cut
in that feature's order (ascending threshold; subset masks in enumeration
order; prefixes along the mean order, equal means by category index).  A
node splits only if its best gain exceeds that tolerance.  A threshold is
the midpoint of the values it separates, or the lower one when the midpoint
rounds onto the upper.

Missing predictor cells need no option: wherever the table has any, rows
missing the candidate feature are excluded from that split's score, whose
decrease is still divided by the whole node size, and they are sent to the
child that took the majority of the observed rows; predict routes a row
missing a split's feature the same way.

A fitted forest is one set of node arrays over all its trees, a node's
children after it: split j of a grown level owns children 2j and 2j + 1 of
the next, and a leaf points to itself with threshold +inf.  Predict makes
the majority rule a plain lookup.  Once per call it lays each row out twice
side by side, missing cells at -inf and at +inf.  Thresholds are finite, so
a continuous split whose majority went left reads the -inf copy and one
whose majority went right the +inf copy; a categorical split reads the +inf
copy as a code into its boolean table, whose entries from the column's k on
(the missing code) hold its majority side.  (row, tree) pairs, a chunk of
trees at a time, then all move one level per step: one gather, one
comparison, the table lookups of the pairs at categorical splits, and left
child + went right.  Pairs at a leaf stay there until the next drop.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import ColumnKind, DataTable, LabelVector, _freeze
from .errors import DataError, _non_negative, _of, _optional, _positive, check_fields

_TIE_RTOL = 1e-10    # gains closer than this times the node impurity tie
_BATCH_ROWS = 1 << 13  # bootstrap rows of the trees grown together
_BLOCK = 1 << 20     # elements per block of categorical subset sums
_PAIRS = 1 << 15     # (row, tree) pairs routed together: whole trees, at least one
_DROP = 6            # levels between drops of the pairs that reached a leaf
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


# read-only views of one node, for readers that walk trees
_Leaf = namedtuple("_Leaf", "value")
_Split = namedtuple("_Split", "feature threshold left_cats majority_left left right")


@dataclass(frozen=True, eq=False)
class ForestModel:
    """A fitted forest, as read-only node arrays over all its trees, plus the
    metadata needed to validate inputs.  Models compare by identity."""

    kind: ColumnKind
    feature_signature: tuple         # categories per feature, 0 if continuous
    classes: np.ndarray | None       # original class ids, ascending
    label_categories: tuple[str, ...]
    label_name: str
    roots: np.ndarray                # root node of each tree; a node's children come after it
    feature: np.ndarray              # split feature, 0 at a leaf
    threshold: np.ndarray            # continuous cut; +inf at a leaf, NaN at a categorical split
    majority_left: np.ndarray        # the majority of observed rows went left
    left: np.ndarray                 # left child (right is left + 1); a leaf's own index
    value: np.ndarray                # mean target (regression) or majority class index
    leaf: np.ndarray
    left_cats: np.ndarray            # bool (categorical split, code); codes k.. are missing

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                _freeze(a)

    @cached_property
    def trees(self) -> tuple:
        """One _Split/_Leaf root per tree, built on first access; fit and
        predict never build it."""
        spec = list(zip(self.leaf.tolist(), self.value.tolist(), self.feature.tolist(),
                        self.threshold.tolist(), self.majority_left.tolist(), self.left.tolist()))
        tables = iter(self.left_cats)    # NaN thresholds mark the categorical splits
        cats = [next(tables)[:self.feature_signature[f] + 1] if t != t else None
                for _, _, f, t, _, _ in spec]
        nodes = [None] * len(spec)
        for i in reversed(range(len(spec))):
            leaf, v, f, t, mj, l = spec[i]
            nodes[i] = _Leaf(v) if leaf else _Split(f, t if t == t else None, cats[i], mj,
                                                    nodes[l], nodes[l + 1])
        return tuple(nodes[r] for r in self.roots.tolist())


def _resolve(params: ForestParams, p: int, kind: ColumnKind) -> tuple[int, int]:
    is_class = kind is ColumnKind.CATEGORICAL
    mtry = math.ceil(math.sqrt(p) if is_class else p / 3) if params.mtry is None else params.mtry
    min_leaf = (1 if is_class else 5) if params.min_leaf is None else params.min_leaf
    if mtry > p:
        raise DataError(f"mtry={mtry} exceeds feature count {p}")
    return mtry, min_leaf


def _subset_masks(k: int) -> np.ndarray:
    """All 2^(k-1) - 1 binary partitions of k categories, as 0/1 rows.

    Each partition appears once: the enumerated side never contains the
    last category, so complements are not revisited.
    """
    return (np.arange(1, 1 << (k - 1))[:, None] >> np.arange(k)) & 1


_GOLDEN, _MIX1, _MIX2, _R30, _R27, _R31, _R32, _LO32 = map(np.uint64, (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31, 32, (1 << 32) - 1))
# hash inputs of tree keys, and of bootstrap draws (node draws XOR in positions < n)
_TREE_TAG, _BOOT_TAG = np.uint64(769001), np.uint64(1 << 32)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 of every element of a uint64 array."""
    z = z + _GOLDEN
    z ^= z >> _R30
    z *= _MIX1
    z ^= z >> _R27
    z *= _MIX2
    z ^= z >> _R31
    return z


def _below(h: np.ndarray, n: int) -> np.ndarray:
    """floor(h * n / 2**64) of every uint64 hash h, exactly: the high word of
    the 128-bit product, from 32-bit halves so that no product overflows."""
    hi, lo, n_hi, n_lo = h >> _R32, h & _LO32, np.uint64(n >> 32), np.uint64(n & (1 << 32) - 1)
    mid = (lo * n_lo >> _R32) + (hi * n_lo & _LO32) + lo * n_hi
    return hi * n_hi + (hi * n_lo >> _R32) + (mid >> _R32)


class _Grower:
    """Grows batches of trees level by level; all state is per fit."""

    def __init__(self, Xv, miss, cat_sizes, y, n_classes, mtry, min_leaf, max_depth):
        # codes: a continuous cell's dense rank among its column's distinct
        # observed values, a categorical cell's category id, and for a
        # missing cell the code one past the column's last.  One sort ranks
        # every continuous column; a missing cell sorts last, as +inf.
        self.n, self.p = Xv.shape
        cont, cat = (cat_sizes == 0).nonzero()[0], cat_sizes.nonzero()[0]
        v = Xv[:, cont] if miss is None else np.where(miss[:, cont], np.inf, Xv[:, cont])
        order = v.argsort(axis=0)
        v = v[order, np.arange(cont.size)]
        new = np.ones(v.shape, dtype=bool)
        np.not_equal(v[1:], v[:-1], out=new[1:])
        self.codes = np.empty((self.n, self.p), dtype=np.int64)
        self.codes[order, cont] = new.cumsum(axis=0) - 1
        self.codes[:, cat] = Xv[:, cat] if miss is None else np.where(
            miss[:, cat], cat_sizes[cat], Xv[:, cat])
        new &= v < np.inf
        self.values = v.T[new.T]              # distinct continuous values
        sizes = np.zeros(self.p, dtype=np.int64)
        sizes[cont] = new.sum(axis=0)
        self.offsets = sizes.cumsum() - sizes
        self.miss_code = cat_sizes + sizes
        self.K1 = int(self.miss_code.max()) + 1
        self.slot_keys = np.arange(mtry) * self.K1
        self.cat_sizes = cat_sizes            # 0 for continuous columns
        self.cat_ks = sorted(set(cat_sizes[cat].tolist()))
        self.masks = {k: _subset_masks(k) for k in self.cat_ks if k <= 10}
        self.n_cut = max([k - 1 if k > 10 else (1 << (k - 1)) - 1 for k in self.cat_ks] or [0])
        self.width = max(self.cat_ks or [0]) + 1   # category codes and the miss code
        self.no_tab = np.zeros((0, self.width), dtype=bool)
        self.has_miss = miss is not None
        self.y, self.C = y, n_classes         # C is 0 for regression
        self.mtry, self.min_leaf, self.max_depth = mtry, min_leaf, max_depth
        self.onehot = np.eye(n_classes, dtype=np.int64)
        self._sq = (lambda a: (a * a).sum(axis=0)) if n_classes else (lambda a: a * a)
        self.hash_features = np.arange(self.p, dtype=np.uint64)
        # regression sums are exact in 2^-shift fixed point: a node holds at
        # most n targets scaled into [-1, 1]
        self.shift = 0 if n_classes else 62 - self.n.bit_length()

    def grow(self, tree_keys: np.ndarray, bootstrap: bool) -> list:
        """Grow one tree per key, roots in key order; returns the levels:
        (node values, split positions, split specs, categorical tables)."""
        n, T, C, ml = self.n, tree_keys.size, self.C, self.min_leaf
        # hashes of (tree key, position < n): a node's draw starts from the one at
        # its depth (no tree opens a node at depth n), bootstrap row i from the one at i
        depth_hash = _mix(tree_keys[:, None] ^ np.arange(n, dtype=np.uint64))
        rows = (_below(_mix(depth_hash ^ _BOOT_TAG), n).astype(np.int64).ravel() if bootstrap
                else np.tile(np.arange(n), T))    # each tree's n rows, back to back
        pos = np.arange(T * n, dtype=np.uint64) % np.uint64(n)   # bootstrap position
        node = np.arange(T).repeat(n)
        tree = np.arange(T)                   # tree of each node
        m = np.full(T, n)                     # rows of each node
        levels, depth = [], 0
        while True:
            F = m.size
            y = self.y[rows]
            if C:
                counts = np.bincount(y * F + node, minlength=C * F).reshape(C, F)
                value = counts.argmax(axis=0)   # ties go to the smallest class
                open_ = counts.max(axis=0) < m
            else:
                start = m.cumsum() - m
                value = np.bincount(node, weights=y, minlength=F) / m
                dev = y - value[node]
                scale = np.maximum.reduceat(np.abs(dev), start)
                open_ = np.maximum.reduceat(y, start) > np.minimum.reduceat(y, start)
            open_ &= (m >= 2 * ml) & (depth != self.max_depth)
            sidx = open_.nonzero()[0]
            levels.append((value, sidx[:0], np.zeros((4, 0), dtype=np.int64), self.no_tab))
            if not sidx.size:
                break

            if sidx.size < F:                 # keep the rows of open nodes
                inside = open_[node]
                node = (open_.cumsum() - 1)[node[inside]]
                rows, pos, y = rows[inside], pos[inside], y[inside]
                if not C:
                    dev, scale = dev[inside], scale[sidx]
            m, tree = m[sidx], tree[sidx]
            feats = self._draw(depth_hash[tree, depth], pos[m.cumsum() - m])
            if C:
                held = counts.take(sidx, axis=1)
                impurity = m - (held * held).sum(axis=0) / m
                chan = y
            else:
                z = dev / scale[node]
                chan = np.rint(np.ldexp(z, self.shift)).astype(np.int64)
                impurity = np.bincount(node, weights=z * z, minlength=m.size)
            best = self._score(rows, node, m, chan, y, feats, _TIE_RTOL * impurity)
            if best is None:
                break
            ok, spec, left_tab = best
            levels[-1] = (value, sidx[ok], spec.compress(ok, axis=1),
                          self.no_tab if left_tab is None else left_tab[ok & (spec[1] < 0)])

            s = node                          # route the rows of split nodes
            if not ok.all():
                go = ok[node]
                s, rows, pos = node[go], rows[go], pos[go]
                node = (ok.cumsum() - 1)[s]
            f, cut, _, major = spec.take(s, axis=1)
            c = self.codes[rows, f]
            right = c > cut
            if left_tab is not None:
                right &= ~left_tab[s, np.minimum(c, self.width - 1)]
            if self.has_miss:
                right = np.where(c == self.miss_code[f], major == 0, right)
            child = 2 * node + right
            m = np.bincount(child, minlength=2 * len(levels[-1][1]))
            assert m.min() >= ml, "a split left a child below min_leaf"
            order = child.argsort(kind="stable")
            rows, pos, node = rows[order], pos[order], child[order]
            tree = tree[ok].repeat(2)
            depth += 1
        return levels

    def _draw(self, node_hash, min_pos) -> np.ndarray:
        """The mtry candidate features of each node, ascending.  A node's
        hashes are distinct (splitmix64 is a bijection), so its mtry
        smallest are exactly those at most the mtry-th smallest."""
        h = _mix(_mix(node_hash ^ min_pos)[:, None] ^ self.hash_features)
        kth = h.copy()
        kth.partition(self.mtry - 1, axis=1)
        return (h <= kth[:, self.mtry - 1, None]).nonzero()[1].reshape(-1, self.mtry)

    def _gain(self, left, nl, no, total, parent):
        """Impurity decrease, in count units, of cuts with integer left sums
        `left` (channels first) over nl of no observed rows; -inf below min_leaf."""
        if not self.C:
            left = left * 2.0 ** -self.shift
        right, nr = total - left, no - nl
        g = (self._sq(left) / np.maximum(nl, 1) - parent
             + self._sq(right) / np.maximum(nr, 1))
        return np.where(np.minimum(nl, nr) >= self.min_leaf, g, -np.inf)

    def _score(self, rows, snode, m, chan, y, feats, tol):
        """Best split of every open node, by the tie rule of the module.

        Node s scores the pairs (s, feature) of its drawn features, pair id
        s * mtry + slot, whose entries one sort orders by rank code, missing
        cells last.  Cumulative sums of the channels (one-hot classes, or
        fixed-point targets) give each run of equal codes its left sums.  A
        node takes the first run, in (slot, code) order, that passes its
        tolerance; a categorical pair's best cut stands at its first run.
        """
        S, mtry = feats.shape
        K1, N = self.K1, rows.size * mtry
        pair_feat = feats.ravel()
        codes = self.codes[rows[:, None], feats[snode]]
        key = ((snode * (mtry * K1))[:, None] + self.slot_keys + codes).ravel()
        order = key.argsort()
        key = key[order]
        ent = order // mtry
        ch = self.onehot.take(y.take(ent), axis=1) if self.C else chan.take(ent)
        csum = np.zeros(ch.shape[:-1] + (N + 1,), dtype=np.int64)
        ch.cumsum(axis=-1, out=csum[..., 1:])
        bounds = np.concatenate(([0], (key[1:] != key[:-1]).nonzero()[0] + 1, [N]))
        r_start, r_end = bounds[:-1], bounds[1:]            # runs of equal keys
        r_pair, r_code = np.divmod(key[r_start], K1)
        edges = np.concatenate(([0], m.repeat(mtry).cumsum()))
        first, upper = edges[:-1], edges[1:]                # where each pair starts and ends
        if self.has_miss:                                   # its observed entries end
            hole = (r_code == self.miss_code[pair_feat[r_pair]]).nonzero()[0]
            upper = upper.copy()
            upper[r_pair[hole]] = r_start[hole]
        n_obs = upper - first
        total = csum.take(upper, axis=-1) - csum.take(first, axis=-1)
        if not self.C:
            total = total * 2.0 ** -self.shift
        parent = self._sq(total) / np.maximum(n_obs, 1)
        fr = first[r_pair]
        g = self._gain(csum.take(r_end, axis=-1) - csum.take(fr, axis=-1), r_end - fr,
                       n_obs[r_pair], total.take(r_pair, axis=-1), parent[r_pair])
        pair_run = r_start.searchsorted(first)              # first run of each pair

        pair_k = self.cat_sizes[pair_feat]
        cq = pair_k.nonzero()[0]
        if cq.size:
            qk = pair_k[cq]
            if len(self.cat_ks) > 1:                        # group the pairs by k
                by_k = qk.argsort(kind="stable")
                cq, qk = cq[by_k], qk[by_k]
            q_of = np.zeros(pair_k.size, dtype=np.int64)
            q_of[cq] = np.arange(cq.size)
            on_cat = (pair_k[r_pair] > 0).nonzero()[0]
            g[on_cat] = -np.inf
            at = q_of[r_pair[on_cat]], r_code[on_cat]
            hist = np.zeros(csum.shape[:-1] + (cq.size, self.width), dtype=np.int64)
            hist[..., at[0], at[1]] = (csum.take(r_end[on_cat], axis=-1)
                                       - csum.take(r_start[on_cat], axis=-1))
            cnt = np.zeros((cq.size, self.width), dtype=np.int64)
            cnt[at] = (r_end - r_start)[on_cat]
            no, tot, par = n_obs[cq, None], total.take(cq, axis=-1)[..., None], parent[cq, None]
            cat_gain = np.full((cq.size, self.n_cut), -np.inf)
            ranks = np.zeros((cq.size, self.width), dtype=np.int64)
            lims = qk.searchsorted(self.cat_ks + [qk[-1] + 1]).tolist()
            for k, lo, hi in zip(self.cat_ks, lims, lims[1:]):
                if k > 10 and hi > lo:
                    # prefixes of the categories ordered by mean target;
                    # absent categories sort last
                    if self.C:
                        sums = (hist[:, lo:hi, :k] * np.arange(self.C)[:, None, None]).sum(axis=0)
                    else:
                        row = np.full(pair_k.size, -1)
                        row[cq[lo:hi]] = np.arange(hi - lo)
                        row = row[(snode * mtry)[:, None] + np.arange(mtry)]
                        use = (row >= 0) & (codes < k)
                        sums = np.bincount(row[use] * k + codes[use], minlength=(hi - lo) * k,
                                           weights=np.broadcast_to(y[:, None], use.shape)[use])
                        sums = sums.reshape(hi - lo, k)
                    mean = np.divide(sums, cnt[lo:hi, :k], out=np.full(sums.shape, np.inf),
                                     where=cnt[lo:hi, :k] > 0)
                    ranks[lo:hi, :k] = mean.argsort(axis=1, kind="stable").argsort(axis=1)
                n_cut = k - 1 if k > 10 else (1 << (k - 1)) - 1
                step = max(1, _BLOCK // (n_cut * (k + (self.C or 1))))
                for q0 in range(lo, hi, step):
                    q = slice(q0, min(q0 + step, hi))
                    masks = (self.masks[k] if k <= 10 else
                             (ranks[q, None, :k] <= np.arange(k - 1)[:, None]).astype(np.int64))
                    cat_gain[q, :n_cut] = self._gain(
                        (masks @ hist[..., q, :k, None])[..., 0], (masks @ cnt[q, :k, None])[..., 0],
                        no[q], tot[..., q, :], par[q])
            g[pair_run[cq]] = cat_gain.max(axis=1)      # stands in for the pair

        node_run = pair_run[::mtry]
        best = np.maximum.reduceat(g, node_run)
        ok = best > tol
        if not ok.any():
            return None
        lim = best - tol
        run = np.minimum.reduceat(np.where(g >= lim[r_pair // mtry], np.arange(g.size), g.size),
                                  node_run)
        cp = r_pair[run]
        spec = np.empty((4, S), dtype=np.int64)  # feature, cut code (-1: categorical),
        spec[0] = pair_feat[cp]                  # next code, majority goes left
        is_cat = ok & (self.cat_sizes[spec[0]] > 0)
        spec[1] = np.where(is_cat, -1, r_code[run])
        spec[2] = r_code[np.minimum(run + 1, g.size - 1)]
        nl = r_end[run] - first[cp]
        left_tab = None
        if is_cat.any():
            # the first passing subset or prefix of the pair
            cn = is_cat.nonzero()[0]
            q = q_of[cp[cn]]
            j = (cat_gain[q] >= lim[cn, None]).argmax(axis=1)
            left_tab = np.zeros((S, self.width), dtype=bool)
            kn = qk[q]
            for k in set(kn.tolist()):
                w = kn == k
                left_tab[cn[w], :k] = (self.masks[k][j[w]] if k <= 10 else
                                       ranks[q[w], :k] <= j[w, None])
            nl[cn] = (left_tab[cn] * cnt[q]).sum(axis=1)
        spec[3] = nl >= n_obs[cp] - nl
        return ok, spec, left_tab

    def _build(self, levels) -> dict:
        """ForestModel's node arrays from the levels of every batch, back to
        back: split j of a level owns children 2j and 2j + 1 of the next
        level (the last level of a batch has no splits), and a root is a node
        no split points to."""
        start = np.cumsum([0] + [lv[0].size for lv in levels])
        at = np.concatenate([s + lv[1] for s, lv in zip(start, levels)])
        kids = np.concatenate([s + 2 * np.arange(lv[1].size) for s, lv in zip(start[1:], levels)])
        feat, cut, nxt, major = np.concatenate([lv[2] for lv in levels], axis=1)
        num, cat = (cut >= 0).nonzero()[0], (cut < 0).nonzero()[0]
        off = self.offsets[feat[num]]
        lo, hi = self.values[off + cut[num]], self.values[off + nxt[num]]
        with np.errstate(over="ignore"):
            mid = (lo + hi) / 2.0
        value = np.concatenate([lv[0] for lv in levels])
        N = value.size
        feature, left, leaf = np.zeros(N, dtype=np.int64), np.arange(N), np.ones(N, dtype=bool)
        majority_left, threshold = np.ones(N, dtype=bool), np.full(N, np.inf)
        feature[at], left[at], leaf[at], majority_left[at] = feat, kids, False, major
        threshold[at[num]] = np.where(mid < hi, mid, lo)
        threshold[at[cat]] = np.nan
        # a categorical split's codes k.. (k: missing) go to the majority side
        past = np.arange(self.width) >= self.cat_sizes[feat[cat], None]
        tab = np.concatenate([lv[3] for lv in levels])
        return dict(roots=np.setdiff1d(np.arange(N), np.concatenate((kids, kids + 1))),
                    feature=feature, threshold=threshold, majority_left=majority_left, left=left,
                    value=value, leaf=leaf, left_cats=np.where(past, major[cat, None] == 1, tab))


def fit_forest(X: DataTable, y: LabelVector, params: ForestParams, seed: int) -> ForestModel:
    """Fit a forest of CART trees on X against y, which must be complete.

    Missing predictor cells of X are excluded from split scores and routed
    to the majority child.
    """
    if y.n != X.n_rows:
        raise DataError("X rows and y length differ")
    if X.n_rows < 1:
        raise DataError("cannot fit a forest on an empty table")
    if y.missing.any():
        raise DataError("target has missing entries")

    mtry, min_leaf = _resolve(params, X.n_cols, y.kind)
    signature = tuple(c.n_categories for c in X.schema)
    cat_sizes = np.array(signature, dtype=np.int64)

    classes, n_classes, y_arr = None, 0, y.values
    if y.kind is ColumnKind.CATEGORICAL:
        classes, y_arr = np.unique(y.values.astype(np.int64), return_inverse=True)
        n_classes = int(classes.size)

    n, miss = X.n_rows, (X.missing if X.missing.any() else None)
    grower = _Grower(X.values, miss, cat_sizes, y_arr, n_classes, mtry, min_leaf,
                     params.max_depth)
    z = _mix(_mix(np.array([int(seed) % (1 << 64)], dtype=np.uint64)) ^ _TREE_TAG)
    keys = _mix(z ^ np.arange(params.n_trees, dtype=np.uint64))   # of (seed, tag, t)
    per_batch, levels = max(1, _BATCH_ROWS // n), []
    for t0 in range(0, params.n_trees, per_batch):
        levels += grower.grow(keys[t0:t0 + per_batch], params.bootstrap)
    return ForestModel(y.kind, signature, classes, y.categories, y.name, **grower._build(levels))


def _predict(model: ForestModel, X: DataTable) -> LabelVector:
    """Each tree fills one row of a table: one vote (ties to the smallest
    class) or one mean.  Pairs that reached a leaf are dropped every _DROP
    levels; a leaf keeps the pairs it holds until then."""
    if tuple(c.n_categories for c in X.schema) != model.feature_signature:
        raise DataError("feature columns do not match the fitted model")
    (n, p), T = X.values.shape, model.roots.size
    # column-major: the pairs at one node read one column
    cells = np.concatenate((np.where(X.missing, -np.inf, X.values),
                            np.where(X.missing, np.inf, X.values)), axis=1).T.ravel()
    thr, left, width = model.threshold, model.left, model.left_cats.shape[1]
    cat = np.isnan(thr)
    col = (model.feature + p * ~(model.majority_left & ~cat)) * n
    tab, tab_at = model.left_cats.ravel(), (cat.cumsum() - 1) * width   # a split's row of tab
    out = np.empty(T * n, dtype=model.value.dtype)
    per = max(1, _PAIRS // max(n, 1))                  # trees per chunk
    for t0 in range(0, T, per):
        roots = model.roots[t0:t0 + per]
        node, row = roots.repeat(n), np.tile(np.arange(n), roots.size)
        pair = np.arange(t0 * n, t0 * n + node.size)
        while node.size:
            for _ in range(_DROP):
                x = cells.take(row + col.take(node))
                t = thr.take(node)
                right = x > t
                if tab.size:
                    c = np.isnan(t).nonzero()[0]
                    code = np.minimum(x.take(c), width - 1).astype(np.intp)
                    right[c] = ~tab.take(tab_at.take(node.take(c)) + code)
                node = left.take(node) + right
            done = model.leaf.take(node)
            d = done.nonzero()[0]
            out[pair.take(d)] = model.value.take(node.take(d))
            if d.size:
                k = (~done).nonzero()[0]
                node, row, pair = node.take(k), row.take(k), pair.take(k)
    out = out.reshape(T, n)
    if model.kind is ColumnKind.CATEGORICAL:
        C = int(model.classes.size)
        votes = np.bincount((out + np.arange(n) * C).ravel(), minlength=n * C)
        raw = model.classes[votes.reshape(n, C).argmax(axis=1)].astype(np.float64)
    else:
        raw = sum(out, 0.0) / T   # in tree order: np.sum may add pairwise
    # forest outputs are training labels or their means: valid by construction
    return LabelVector._unsafe(model.kind, raw, np.zeros(n, dtype=bool),
                               model.label_categories, model.label_name)


def predict(model: ForestModel, X: DataTable) -> LabelVector:
    """Predict rows of X; regression averages trees, classification takes a
    majority vote with ties broken by the smallest class index.  A row
    reaching a split on a feature it lacks follows the child that took the
    majority of the training rows at that node."""
    return _predict(model, X)


def predict_with_missing(model: ForestModel, X: DataTable) -> LabelVector:
    """The same rule as predict, under the name callers use for rows with
    missing cells."""
    return _predict(model, X)
