"""Random forests over typed tables, built on hand-grown CART trees.

Trees split greedily: continuous features cut at the midpoints between
consecutive distinct values present in the node; categorical features
enumerate binary category partitions when the column has at most 10
categories and fall back to prefix cuts along the categories ordered by
mean target beyond that.  Regression trees score splits by sum-of-squares
reduction, classification trees by Gini impurity decrease.

Growth is level-wise, the exact-histogram scheme of LightGBM applied to
CART: one sort per fit rank-codes every continuous column, and one step
advances every open node of a batch of trees by one depth in a number of
array passes set by the table's columns, with no loop over nodes.  A
column of more than 10 categories is first recoded, node by node, by the
rank of its categories' mean target, so that its prefix cuts fall between
runs of codes as continuous cuts do.  One sort of (node, feature, code)
keys then orders every candidate, and integer cumulative sums score every
cut at the end of a run of equal codes: target sums for regression, and
for classification the sum of squared left class counts and its cross term
with the node's class totals, both from each entry's count of the earlier
entries of its class (one radix sort of the class codes), so that a
level's work does not grow with the class count.  Columns of 2 to 10
categories sum their runs per category, every such pair's subsets by
doubling up to the widest column's, and then score each pair's own subsets
in one pass over the level.
Regression targets are centred and scaled per node and summed in fixed
point, so every sum is exact whichever nodes and trees share a step.

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
_SIDES = np.array([-np.inf, np.inf])[:, None, None]   # predict's two copies of a missing cell
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
        # missing cell the code one past the column's last, column by column
        # (cell (i, f) at f * n + i).  One sort ranks every continuous
        # column; a missing cell sorts last, as +inf.
        self.n, self.p = n, p = Xv.shape
        cont, cat = (cat_sizes == 0).nonzero()[0], cat_sizes.nonzero()[0]
        X = Xv.T
        v = X[cont] if miss is None else np.where(miss.T[cont], np.inf, X[cont])
        order = v.argsort(axis=1)
        v = np.take_along_axis(v, order, axis=1)
        new = np.ones(v.shape, dtype=bool)
        np.not_equal(v[:, 1:], v[:, :-1], out=new[:, 1:])
        rank = new.cumsum(axis=1)
        codes = np.empty((p, n), dtype=np.int64)
        codes.ravel()[(order + (cont * n)[:, None]).ravel()] = (rank - 1).ravel()
        codes[cat] = X[cat] if miss is None else np.where(miss.T[cat], cat_sizes[cat, None], X[cat])
        self.codes = codes.ravel()
        new &= v < np.inf
        self.values = v[new]                  # distinct continuous values
        sizes = np.zeros(p, dtype=np.int64)
        sizes[cont] = rank[:, -1] - (v[:, -1] == np.inf)
        self.offsets = sizes.cumsum() - sizes
        self.miss_code = cat_sizes + sizes
        self.K1 = int(self.miss_code.max()) + 1
        self.cat_sizes = cat_sizes            # 0 for continuous columns
        ks = cat_sizes[cat].tolist()
        self.width = max(ks, default=0) + 1   # category codes and the miss code
        self.code_ids = np.arange(self.width)
        self.slots = np.arange(mtry)[:, None]   # an entry's slot, as a column
        # a column of 2 to 10 categories is cut by its 2^(k-1) - 1 subsets, a
        # wider one by prefixes of its categories in mean target order; one of
        # a single category is scored as a continuous one, every cut -inf
        self.is_sub = (cat_sizes > 1) & (cat_sizes <= 10)
        k_sub = max([k for k in ks if k <= 10], default=1)
        self.n_cut = (1 << k_sub - 1) - 1    # the subsets of the widest such column
        self.n_bits = k_sub - 1               # a subset's categories but the last
        self.cuts_of_k = (1 << np.arange(k_sub + 1)) // 2 - 1   # subsets per k >= 1
        self.cut_ids = np.arange(self.n_cut)
        self.has_prefix, self.has_cat = max(ks, default=0) > 10, bool(ks)
        # a level's split positions, specs and categorical tables when none splits
        self.no_split = (np.zeros(0, dtype=np.int64), np.zeros((4, 0), dtype=np.int64),
                         np.zeros((0, self.width), dtype=bool))
        self.has_miss = miss is not None
        self.y, self.C = y, n_classes         # C is 0 for regression
        self.mtry, self.min_leaf, self.max_depth = mtry, min_leaf, max_depth
        self.class_dtype = np.min_scalar_type(n_classes)   # sorts by radix
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
            open_ &= m >= 2 * ml
            levels.append((value,) + self.no_split)
            sidx = open_.nonzero()[0] if depth != self.max_depth else self.no_split[0]
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
                          self.no_split[2] if left_tab is None else left_tab[ok & (spec[1] < 0)])

            s = node                          # route the rows of split nodes
            if not ok.all():
                go = ok[node]
                s, rows, pos = node[go], rows[go], pos[go]
                node = (ok.cumsum() - 1)[s]
            c = self.codes.take((spec[0] * n).take(s) + rows)
            right = c > spec[1].take(s)
            if left_tab is not None:
                right &= ~left_tab.ravel().take(s * self.width + np.minimum(c, self.width - 1))
            if self.has_miss:
                f, major = spec[0::3].take(s, axis=1)
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
        """The mtry candidate features of each node, ascending: those of its
        mtry smallest hashes, which are distinct (splitmix64 is a bijection)."""
        h = _mix(_mix(node_hash ^ min_pos)[:, None] ^ self.hash_features)
        return np.sort(h.argsort(axis=1)[:, :self.mtry], axis=1)

    def _gain(self, lsq, rsq, nl, nr, parent):
        """Impurity decrease, in count units, of cuts whose sides hold nl and
        nr observed rows with squared sums lsq and rsq; -inf below min_leaf
        (min_leaf >= 1, so the masked cuts are those that divide by nl or nr
        below 1)."""
        with np.errstate(divide="ignore", invalid="ignore"):   # masked below
            g, gr = lsq / nl, rsq / nr
        g -= parent
        g += gr
        np.putmask(g, np.minimum(nl, nr) < self.min_leaf, -np.inf)
        return g

    def _squares(self, left, total):
        """The squared sums of both sides of cuts with integer left sums
        `left` (channels last) of the sums `total`."""
        if self.C:
            right = total - left
            return np.einsum("ij,ij->i", left, left), np.einsum("ij,ij->i", right, right)
        left = left * 2.0 ** -self.shift
        right = total - left
        left *= left
        right *= right
        return left, right

    def _score(self, rows, snode, m, chan, y, feats, tol):
        """Best split of every open node, by the tie rule of the module.

        Node s scores the pairs (s, feature) of its drawn features, pair id
        s * mtry + slot.  A pair cut by prefixes first recodes each category
        as its rank in mean target order, so that its cuts fall between runs
        like a continuous feature's.  One sort orders every pair's entries by
        code, missing cells last.  Cumulative sums over the sorted entries
        give the cut at each run's end its squared left and right sums:
        fixed-point targets, or for classes an entry's earlier entries of
        its class in the pair and its class total.  A pair cut by subsets
        sums its runs per category; the level's subset pairs then sum their
        subsets by doubling and score their own subsets in one pass, and a
        pair's best cut stands at its first run.  A node takes the first run,
        in (slot, code) order, that passes its tolerance.
        """
        S, mtry = feats.shape
        K1, N, w = self.K1, rows.size * mtry, self.width
        pair_feat = feats.ravel()
        pair_k = self.cat_sizes[pair_feat]
        # entry e is slot e // R of row position e % R (R = rows.size), so
        # take(..., mode="wrap") reads a row's value at its entries; a
        # per-row array of another length would wrap to wrong rows
        assert y.size == chan.size == rows.size
        pair_e = snode * mtry + self.slots                  # the pair of each entry
        codes = self.codes.take((pair_feat * self.n).take(pair_e) + rows)
        pq = (pair_k > 10).nonzero()[0] if self.has_prefix else self.no_split[0]
        if pq.size:
            # the mean target of each (prefix pair, category), summed in row
            # order; absent categories, then the missing code, rank last
            p_of = np.full(pair_k.size, pq.size)
            p_of[pq] = np.arange(pq.size)
            on = p_of.take(pair_e).ravel()
            sel = (on < pq.size).nonzero()[0]               # entries of prefix pairs
            flat = codes.ravel()
            at = on[sel] * w + flat[sel]
            cnt = np.bincount(at, minlength=pq.size * w).reshape(-1, w)
            sums = np.bincount(at, weights=y.take(sel, mode="wrap"),
                               minlength=cnt.size).reshape(-1, w)
            mean = np.divide(sums, cnt, out=np.full(cnt.shape, np.inf),
                             where=(cnt > 0) & (self.code_ids < pair_k[pq, None]))
            rank = mean.argsort(axis=1, kind="stable").argsort(axis=1)
            flat[sel] = rank.take(at)
        key = (pair_e * K1 + codes).ravel()
        order = key.argsort()
        key = key[order]
        new = np.empty(N + 1, dtype=bool)
        new[0] = new[N] = True
        np.not_equal(key[1:], key[:-1], out=new[1:N])
        bounds = new.nonzero()[0]
        r_start, r_end = bounds[:-1], bounds[1:]            # runs of equal keys
        r_key = key[r_start]
        r_pair = r_key // K1
        r_code = r_key - r_pair * K1
        edges = np.concatenate(([0], m.repeat(mtry).cumsum()))
        first, upper = edges[:-1], edges[1:]                # where each pair starts and ends
        if self.has_miss:                                   # its observed entries end
            hole = (r_code == self.miss_code[pair_feat[r_pair]]).nonzero()[0]
            upper = upper.copy()
            upper[r_pair[hole]] = r_start[hole]
        n_obs = upper - first
        fr = first[r_pair]
        nl = r_end - fr
        if self.C:
            # class counts from single entries: the left side of a cut has
            # sum_c L_c^2 = the sum, over its entries, of 2 * (the earlier
            # entries of the pair in the same class) + 1, and sum_c T_c L_c =
            # the sum of T at their classes (T: the pair's observed counts).
            # Missing entries, last in their pair, count in class C.
            P, e_pair, ys = pair_feat.size, key // K1, y.take(order, mode="wrap")
            yo = ys if not self.has_miss else np.where(
                np.arange(N) < upper.take(e_pair), ys, self.C)
            gid = yo * P + e_pair
            count = np.bincount(gid, minlength=(self.C + 1) * P)
            csum = np.zeros((2, N + 1), dtype=np.int64)   # row 0: (class, pair) order, then sorted
            csum[0, 1:][yo.astype(self.class_dtype).argsort(kind="stable")] = 2 * (
                np.arange(N) - (count.cumsum() - count).repeat(count)) + 1
            count.take(gid, out=csum[1, 1:])
            np.cumsum(csum[:, 1:], axis=1, out=csum[:, 1:])
            lsq, lt = csum.take(r_end, axis=1) - csum.take(fr, axis=1)
            total = count[:-P].reshape(self.C, P)
            tsq = (total * total).sum(axis=0)
            rsq = tsq.take(r_pair) - 2 * lt + lsq
        else:
            csum = np.zeros(N + 1, dtype=np.int64)
            chan.take(order, mode="wrap").cumsum(out=csum[1:])
            total = (csum.take(upper) - csum.take(first)) * 2.0 ** -self.shift
            tsq = total * total
            lsq, rsq = self._squares(csum.take(r_end) - csum.take(fr), total.take(r_pair))
        parent = tsq / np.maximum(n_obs, 1)
        g = self._gain(lsq, rsq, nl, n_obs[r_pair] - nl, parent[r_pair])
        pair_run = r_start.searchsorted(first)              # first run of each pair

        cq = self.is_sub.take(pair_feat).nonzero()[0] if self.n_cut else self.no_split[0]
        if cq.size:
            Q = cq.size
            q_of = np.full(pair_k.size, Q)
            q_of[cq] = np.arange(Q)
            rq = q_of[r_pair]
            on_cat = (rq < Q).nonzero()[0]
            g[on_cat] = -np.inf
            # per (category, pair): the channel sums, then the count
            hist = np.zeros((w, Q, max(self.C, 1) + 1), dtype=np.int64)
            if self.C:
                size = (edges[1:] - first)[cq]              # the entries of the subset pairs
                ent = np.repeat(first[cq] - size.cumsum() + size, size) + np.arange(size.sum())
                cell = (((key.take(ent) - cq.repeat(size) * K1) * Q
                         + np.arange(Q).repeat(size)) * self.C + ys.take(ent))
                hist[..., :-1] = np.bincount(cell, minlength=w * Q * self.C).reshape(w, Q, self.C)
                hist[..., -1] = hist[..., :-1].sum(axis=-1)
            else:
                at = r_code[on_cat], rq[on_cat]
                hist[at + (0,)] = csum.take(r_end[on_cat]) - csum.take(r_start[on_cat])
                hist[at + (1,)] = (r_end - r_start)[on_cat]
            no, tot, par = n_obs[cq], total.take(cq, axis=-1).T, parent[cq]
            # pair q's subset j scores at cut_at[q] + j
            n_cut = self.cuts_of_k.take(pair_k[cq])
            cut_at = n_cut.cumsum() - n_cut
            cat_gain = np.empty(cut_at[-1] + n_cut[-1])
            cat_nl = np.empty(cat_gain.size, dtype=np.int64)
            step = max(1, _BLOCK // (hist.shape[-1] * (self.n_cut + 1)))
            for q0 in range(0, Q, step):
                # subset j (bit c: category c goes left) sums at row j + 1,
                # by doubling, up to the widest column's subsets
                h, nq = hist[:, q0:q0 + step], n_cut[q0:q0 + step]
                Qb, e0 = nq.size, cut_at[q0]
                sub = np.zeros((self.n_cut + 1, Qb, h.shape[-1]), dtype=np.int64)
                for b in range(self.n_bits):
                    np.add(sub[:1 << b], h[b], out=sub[1 << b:2 << b])
                # every pair's own subsets, pair by pair, in one pass
                e1 = e0 + int(nq.sum())
                # pair q's subset j sits at row[q] + Qb * (its flat index - e0)
                row = Qb * (1 + e0 - cut_at[q0:q0 + Qb]) + np.arange(Qb)
                c = sub.reshape(-1, sub.shape[-1]).take(Qb * np.arange(e1 - e0) + row.repeat(nq),
                                                        axis=0)
                qe = np.arange(q0, q0 + Qb).repeat(nq)
                nl = cat_nl[e0:e1] = c[:, -1]
                lsq, rsq = self._squares(c[:, :-1] if self.C else c[:, 0], tot.take(qe, axis=0))
                cat_gain[e0:e1] = self._gain(lsq, rsq, nl, no.take(qe) - nl, par.take(qe))
            g[pair_run[cq]] = np.maximum.reduceat(cat_gain, cut_at)   # stands in for the pair

        node_run = pair_run[::mtry]
        best = np.maximum.reduceat(g, node_run)
        ok = best > tol
        if not ok.any():
            return None
        lim = best - tol
        run = np.minimum.reduceat(np.where(g >= lim[r_pair // mtry], np.arange(g.size), g.size),
                                  node_run)
        cp, end = r_pair[run], r_end[run]
        # feature, cut code (-1: categorical), next code, rows left (then:
        # the majority goes left)
        spec = np.array([pair_feat[cp], r_code[run], key.take(end, mode="clip") % K1,
                         end - first[cp]])
        left_tab = None
        if self.has_cat:
            kc = pair_k[cp]
            is_cat = ok & (kc > 0)
            spec[1, is_cat] = -1
            if is_cat.any():
                left_tab = np.zeros((S, w), dtype=bool)
                cs = (is_cat & (kc <= 10)).nonzero()[0]
                if cs.size:                      # the first passing subset
                    q = q_of[cp[cs]]
                    at = cut_at[q, None] + self.cut_ids
                    j = ((cat_gain.take(at, mode="clip") >= lim[cs, None])
                         & (self.cut_ids < n_cut[q, None])).argmax(axis=1)
                    left_tab[cs] = ((j + 1)[:, None] >> self.code_ids) & 1
                    spec[3, cs] = cat_nl.take(cut_at[q] + j)
                if pq.size:                      # the prefix through the passing run
                    cs = (is_cat & (kc > 10)).nonzero()[0]
                    left_tab[cs] = rank[p_of[cp[cs]]] <= r_code[run[cs], None]
        spec[3] = spec[3] >= n_obs[cp] - spec[3]
        return ok, spec, left_tab

    def _build(self, levels, firsts) -> dict:
        """ForestModel's node arrays from the levels of every batch, back to
        back: split j of a level owns children 2j and 2j + 1 of the next
        level (the last level of a batch has no splits), and the roots are
        the nodes of each batch's first level, levels[f] for f in firsts."""
        values, splits, specs, tabs = zip(*levels)
        start = np.cumsum([0] + [v.size for v in values])
        ns = np.array([s.size for s in splits])       # splits per level
        at = np.concatenate(splits) + start[:-1].repeat(ns)
        kids = 2 * np.arange(at.size) + (start[1:] - 2 * (ns.cumsum() - ns)).repeat(ns)
        feat, cut, nxt, major = np.concatenate(specs, axis=1)
        num, cat = (cut >= 0).nonzero()[0], (cut < 0).nonzero()[0]
        off = self.offsets[feat[num]]
        lo, hi = self.values[off + cut[num]], self.values[off + nxt[num]]
        with np.errstate(over="ignore"):
            mid = (lo + hi) / 2.0
        value = np.concatenate(values)
        N = value.size
        feature, left, leaf = np.zeros(N, dtype=np.int64), np.arange(N), np.ones(N, dtype=bool)
        majority_left, threshold = np.ones(N, dtype=bool), np.full(N, np.inf)
        feature[at], left[at], leaf[at], majority_left[at] = feat, kids, False, major
        threshold[at[num]] = np.where(mid < hi, mid, lo)
        threshold[at[cat]] = np.nan
        # a categorical split's codes k.. (k: missing) go to the majority side
        past = self.code_ids >= self.cat_sizes[feat[cat], None]
        tab = np.concatenate(tabs)
        roots = np.concatenate([start[f] + np.arange(values[f].size) for f in firsts])
        return dict(roots=roots,
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
    # a bootstrap may draw one row n times, so n * max|y| bounds every node sum
    if y.kind is not ColumnKind.CATEGORICAL and not math.isfinite(
            X.n_rows * float(np.abs(y_arr).max())):
        raise DataError(f"target '{y.name}' is too large: its node sums overflow")
    if y.kind is ColumnKind.CATEGORICAL:
        classes, y_arr = np.unique(y.values.astype(np.int64), return_inverse=True)
        n_classes = int(classes.size)

    n, miss = X.n_rows, (X.missing if X.missing.any() else None)
    grower = _Grower(X.values, miss, cat_sizes, y_arr, n_classes, mtry, min_leaf,
                     params.max_depth)
    z = _mix(_mix(np.array([int(seed) % (1 << 64)], dtype=np.uint64)) ^ _TREE_TAG)
    keys = _mix(z ^ np.arange(params.n_trees, dtype=np.uint64))   # of (seed, tag, t)
    per_batch, levels, firsts = max(1, _BATCH_ROWS // n), [], []
    for t0 in range(0, params.n_trees, per_batch):
        firsts.append(len(levels))
        levels += grower.grow(keys[t0:t0 + per_batch], params.bootstrap)
    return ForestModel(y.kind, signature, classes, y.categories, y.name,
                       **grower._build(levels, firsts))


def _predict(model: ForestModel, X: DataTable) -> LabelVector:
    """Each tree fills one row of a table: one vote (ties to the smallest
    class) or one mean.  Pairs that reached a leaf are dropped every _DROP
    levels; a leaf keeps the pairs it holds until then."""
    if tuple(c.n_categories for c in X.schema) != model.feature_signature:
        raise DataError("feature columns do not match the fitted model")
    (n, p), T = X.values.shape, model.roots.size
    # column-major: the pairs at one node read one column
    cells = np.where(X.missing.T, _SIDES, X.values.T).ravel()
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
