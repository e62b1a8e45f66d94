import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from labimpute.data import (
    ColumnKind,
    ColumnSchema,
    DataTable,
    LabelVector,
)
from labimpute import forest as forest_module
from labimpute.errors import DataError
from labimpute.forest import (
    ForestParams,
    _Leaf,
    _Split,
    fit_forest,
    predict,
    predict_with_missing,
)


def cont_table(values, missing=None):
    values = np.asarray(values, dtype=np.float64)
    schema = tuple(ColumnSchema(f"x{j}", ColumnKind.CONTINUOUS)
                   for j in range(values.shape[1]))
    if missing is None:
        missing = np.zeros(values.shape, dtype=bool)
    return DataTable(schema, values, np.asarray(missing, dtype=bool))


def class_labels(ints, k=None):
    ints = list(ints)
    k = k if k is not None else max(ints) + 1
    return LabelVector.from_ints(ints, [f"c{i}" for i in range(k)])


def reg_labels(vals):
    vals = np.asarray(vals, dtype=np.float64)
    return LabelVector(ColumnKind.CONTINUOUS, vals, np.zeros(vals.shape, dtype=bool))


def test_single_tree_separates_one_dimension():
    # 20 rows, classes split at x = 0; one tree, no bootstrap, must be exact
    x = np.concatenate([np.linspace(-3, -0.5, 10), np.linspace(0.5, 3, 10)])
    X = cont_table(x[:, None])
    y = class_labels([0] * 10 + [1] * 10)
    model = fit_forest(X, y, ForestParams(n_trees=1, bootstrap=False, min_leaf=1), seed=0)
    pred = predict(model, X)
    assert np.array_equal(pred.values, y.values)
    far = predict(model, cont_table([[5.0]]))
    assert far.values[0] == 1.0


def test_constant_regression_target():
    rng = np.random.default_rng(0)
    X = cont_table(rng.normal(size=(15, 3)))
    y = reg_labels(np.full(15, 7.25))
    model = fit_forest(X, y, ForestParams(n_trees=10), seed=1)
    pred = predict(model, X)
    assert np.all(pred.values == 7.25)


def test_regression_predictions_stay_in_target_range():
    rng = np.random.default_rng(1)
    X = cont_table(rng.uniform(-2, 2, size=(60, 2)))
    yv = np.sin(X.values[:, 0]) + 0.1 * rng.normal(size=60)
    model = fit_forest(X, reg_labels(yv), ForestParams(n_trees=20), seed=2)
    probe = cont_table(rng.uniform(-5, 5, size=(30, 2)))
    pred = predict(model, probe)
    assert pred.values.min() >= yv.min() - 1e-12
    assert pred.values.max() <= yv.max() + 1e-12


def test_regression_mean_does_not_depend_on_batch_size():
    # the trees are summed in order whatever the batch size; np.sum(axis=0)
    # over a one-row batch adds its 30 tree outputs pairwise, moving last bits
    rng = np.random.default_rng(4)
    X = cont_table(rng.uniform(-2, 2, size=(60, 2)))
    yv = np.exp(3 * X.values[:, 0]) + rng.normal(size=60)
    model = fit_forest(X, reg_labels(yv), ForestParams(n_trees=30), seed=5)
    together = predict(model, X).values
    alone = [predict(model, cont_table(X.values[i:i + 1])).values[0] for i in range(60)]
    assert together.tobytes() == np.array(alone).tobytes()


def test_classification_predictions_stay_in_training_classes():
    rng = np.random.default_rng(2)
    X = cont_table(rng.normal(size=(30, 2)))
    y = class_labels([0 if i % 2 else 2 for i in range(30)], k=3)
    model = fit_forest(X, y, ForestParams(n_trees=15), seed=3)
    probe = cont_table(rng.normal(size=(40, 2)))
    pred = predict(model, probe)
    assert set(np.unique(pred.values)) <= {0.0, 2.0}
    assert pred.categories == y.categories


def test_same_seed_reproduces_predictions():
    rng = np.random.default_rng(3)
    X = cont_table(rng.normal(size=(40, 3)))
    y = class_labels((X.values[:, 0] > 0).astype(int).tolist(), k=2)
    probe = cont_table(rng.normal(size=(25, 3)))
    p1 = predict(fit_forest(X, y, ForestParams(n_trees=12), seed=77), probe)
    p2 = predict(fit_forest(X, y, ForestParams(n_trees=12), seed=77), probe)
    assert np.array_equal(p1.values, p2.values)


def test_leaf_tie_votes_smallest_class():
    # identical x values forbid any split; the root leaf holds one row of
    # each class and must vote the smaller index
    X = cont_table([[1.0], [1.0]])
    y = class_labels([1, 0], k=2)
    model = fit_forest(X, y, ForestParams(n_trees=1, bootstrap=False, min_leaf=1), seed=0)
    pred = predict(model, cont_table([[1.0]]))
    assert pred.values[0] == 0.0


def test_forest_vote_tie_breaks_to_smallest_class():
    # hand-built two-tree model, two root leaves with opposing unanimous votes
    base = fit_forest(cont_table([[0.0], [1.0]]), class_labels([0, 1]),
                      ForestParams(n_trees=1, bootstrap=False), seed=0)
    tied = dataclasses.replace(
        base, roots=np.array([0, 1]), feature=np.zeros(2, dtype=np.int64),
        threshold=np.full(2, np.inf), majority_left=np.ones(2, dtype=bool),
        left=np.arange(2), value=np.array([1, 0]), leaf=np.ones(2, dtype=bool))
    assert tied.trees == (_Leaf(1), _Leaf(0))
    pred = predict(tied, cont_table([[0.5]]))
    assert pred.values[0] == 0.0


def test_categorical_subset_split():
    schema = (ColumnSchema("c", ColumnKind.CATEGORICAL, ("a", "b", "d")),)
    codes = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 1], dtype=np.float64)
    X = DataTable(schema, codes[:, None], np.zeros((10, 1), dtype=bool))
    y = class_labels([1 if c == 1 else 0 for c in codes.astype(int)], k=2)
    model = fit_forest(X, y, ForestParams(n_trees=1, bootstrap=False, min_leaf=1), seed=5)
    pred = predict(model, X)
    assert np.array_equal(pred.values, y.values)


def test_majority_direction_routiing_for_missing_features():
    # split on x <= 0.5 sends 3 of 5 rows left; a probe missing x must
    # follow the majority and predict the left-side class
    X = cont_table([[0.0], [0.0], [0.0], [1.0], [1.0]])
    y = class_labels([0, 0, 0, 1, 1])
    model = fit_forest(X, y, ForestParams(n_trees=1, bootstrap=False, min_leaf=1), seed=0)
    probe = cont_table([[np.nan]], missing=[[True]])
    pred = predict_with_missing(model, probe)
    assert pred.values[0] == 0.0


@pytest.mark.parametrize("kind", ["class", "regression"])
def test_split_between_adjacent_floats_keeps_both_children(kind):
    # the midpoint of two adjacent doubles can round onto the upper one; the
    # threshold must still separate them, or one child is empty
    a = 0.6666666666666666
    b = float(np.nextafter(a, 1.0))
    assert (a + b) / 2.0 == b
    X = cont_table([[a], [b]])
    y = class_labels([0, 1]) if kind == "class" else reg_labels([0.0, 1.0])
    model = fit_forest(X, y, ForestParams(n_trees=1, bootstrap=False, min_leaf=1), seed=0)
    assert model.trees[0].threshold == a
    assert predict(model, X).values.tolist() == [0.0, 1.0]


def _spec(node):
    """A tree as nested tuples, floats by their exact repr."""
    if isinstance(node, _Leaf):
        return repr(node.value)
    # a categorical split's bool table over codes 0..k; entry k is the majority side
    cats = None if node.left_cats is None else tuple(node.left_cats.tolist())
    return (node.feature, repr(node.threshold), cats, node.majority_left,
            _spec(node.left), _spec(node.right))


def _mixed_problem(kind, seed=7, n=90):
    rng = np.random.default_rng(seed)
    cont = np.round(rng.normal(size=(n, 3)), 1)
    small = rng.integers(0, 4, n)
    big = rng.integers(0, 12, n)
    schema = (ColumnSchema("a", ColumnKind.CONTINUOUS), ColumnSchema("b", ColumnKind.CONTINUOUS),
              ColumnSchema("c", ColumnKind.CONTINUOUS),
              ColumnSchema("s", ColumnKind.CATEGORICAL, tuple("pqrs")),
              ColumnSchema("t", ColumnKind.CATEGORICAL, tuple(f"v{i}" for i in range(12))))
    values = np.column_stack([cont, small, big]).astype(np.float64)
    miss = rng.random(values.shape) < 0.15
    X = DataTable(schema, np.where(miss, np.nan, values), miss)
    signal = cont[:, 0] + (small == 2) + 0.1 * big
    if kind == "class":
        return X, class_labels(np.digitize(signal, [-0.5, 0.7]).tolist(), k=3)
    return X, reg_labels(signal + 0.1 * rng.normal(size=n))


@pytest.mark.parametrize("kind", ["class", "regression"])
def test_first_trees_do_not_depend_on_forest_size(kind):
    X, y = _mixed_problem(kind)
    big = fit_forest(X, y, ForestParams(n_trees=9), seed=5)
    small = fit_forest(X, y, ForestParams(n_trees=4), seed=5)
    assert [_spec(t) for t in big.trees[:4]] == [_spec(t) for t in small.trees]


@pytest.mark.parametrize("kind", ["class", "regression"])
def test_trees_do_not_depend_on_batching(kind, monkeypatch):
    X, y = _mixed_problem(kind)
    params = ForestParams(n_trees=7)
    together = fit_forest(X, y, params, seed=3)
    for rows in (1, 2 * X.n_rows):   # one tree, then two trees per batch
        monkeypatch.setattr(forest_module, "_BATCH_ROWS", rows)
        apart = fit_forest(X, y, params, seed=3)
        assert [_spec(t) for t in apart.trees] == [_spec(t) for t in together.trees]


@pytest.mark.parametrize("n", [1, 2, 90, 2000, 2 ** 32])
def test_range_reduction_is_the_exact_multiply_high(n):
    hashes = [0, 1, 2 ** 63, 2 ** 64 - 1]
    got = forest_module._below(np.array(hashes, dtype=np.uint64), n)
    assert got.tolist() == [(h * n) >> 64 for h in hashes]


def test_bootstrap_rows_are_in_range_and_cover_the_table(monkeypatch):
    below, drawn = forest_module._below, []

    def spy(h, n):
        drawn.append((n, below(h, n)))
        return drawn[-1][1]

    monkeypatch.setattr(forest_module, "_below", spy)
    X, y = _mixed_problem("class")
    fit_forest(X, y, ForestParams(n_trees=100), seed=8)
    assert {n for n, _ in drawn} == {X.n_rows}
    rows = np.concatenate([r for _, r in drawn])   # (tree, bootstrap position)
    assert rows.shape == (100, X.n_rows) and rows.max() < X.n_rows
    assert np.unique(rows).size == X.n_rows        # every row drawn somewhere
    assert len({r.tobytes() for r in rows}) == 100
    distinct = np.mean([np.unique(r).size for r in rows]) / X.n_rows
    assert 0.6 < distinct < 0.67                   # 1 - (1 - 1/90)**90 = 0.634
    drawn.clear()
    fit_forest(X, y, ForestParams(n_trees=3, bootstrap=False), seed=8)
    assert drawn == []


def test_extreme_seeds_draw_distinct_trees_without_warnings():
    X, y = _mixed_problem("regression")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        specs = [[_spec(t) for t in fit_forest(X, y, ForestParams(n_trees=3), seed=seed).trees]
                 for seed in (-2 ** 63, 0, 2 ** 64 - 1)]
    assert specs[0] != specs[1] and specs[1] != specs[2] and specs[0] != specs[2]


def test_fit_on_missing_predictors_with_majority_routing():
    rng = np.random.default_rng(4)
    n = 80
    x0 = rng.normal(size=n)
    x1 = rng.normal(size=n)
    yv = (x0 > 0).astype(int)
    vals = np.column_stack([x0, x1])
    miss = rng.random((n, 2)) < 0.3
    vals = vals.copy()
    vals[miss] = np.nan
    X = DataTable(
        (ColumnSchema("x0", ColumnKind.CONTINUOUS), ColumnSchema("x1", ColumnKind.CONTINUOUS)),
        vals, miss,
    )
    y = class_labels(yv.tolist(), k=2)
    model = fit_forest(X, y, ForestParams(n_trees=25), seed=6)
    clean = cont_table(np.column_stack([np.array([-2.0, 2.0]), np.zeros(2)]))
    pred = predict(model, clean)
    assert pred.values.tolist() == [0.0, 1.0]
    # rows with holes still get routed
    holed = DataTable(X.schema, np.array([[np.nan, 0.3], [2.0, np.nan]]),
                      np.array([[True, False], [False, True]]))
    out = predict_with_missing(model, holed)
    assert out.missing.sum() == 0


def test_many_classes_fit_beside_a_wide_categorical_feature():
    # a k > 10 feature orders its categories by mean class index, which
    # needs no bound on the class count
    rng = np.random.default_rng(5)
    n, k = 400, 12
    c = rng.integers(0, k, n)
    schema = (ColumnSchema("x", ColumnKind.CONTINUOUS),
              ColumnSchema("c", ColumnKind.CATEGORICAL, tuple(f"v{i}" for i in range(k))))
    X = DataTable(schema, np.column_stack([rng.normal(size=n), c]), np.zeros((n, 2), dtype=bool))
    y = class_labels(6 * c + rng.integers(0, 10, n), k=80)   # classes 76..79 never occur
    trained = set(np.unique(y.values))
    assert len(trained) > 64
    model = fit_forest(X, y, ForestParams(n_trees=5), seed=1)
    assert set(np.unique(predict(model, X).values)) <= trained


def test_fit_rejects_bad_inputs():
    X = cont_table([[1.0], [2.0]])
    y = class_labels([0, 1])
    with pytest.raises(DataError):
        fit_forest(X, y, ForestParams(n_trees=1, mtry=2), seed=0)  # mtry > p
    y_missing = LabelVector(ColumnKind.CATEGORICAL, np.array([0.0, np.nan]),
                            np.array([False, True]), ("a", "b"))
    with pytest.raises(DataError):
        fit_forest(X, y_missing, ForestParams(n_trees=1), seed=0)


def test_predict_rejects_arity_mismatch():
    X = cont_table([[1.0, 2.0], [3.0, 4.0]])
    y = class_labels([0, 1])
    model = fit_forest(X, y, ForestParams(n_trees=2), seed=0)
    with pytest.raises(DataError):
        predict(model, cont_table([[1.0]]))
    with pytest.raises(DataError):
        predict_with_missing(model, cont_table([[1.0]]))
    # one predict rule under both names: a holed row is routed, not refused
    holed = cont_table([[1.0, np.nan]], missing=[[False, True]])
    assert predict(model, holed).values.tobytes() == \
        predict_with_missing(model, holed).values.tobytes()


def test_forest_learns_iris():
    from importlib import resources
    from labimpute.data import load_csv, split_label, train_test_split

    t = load_csv(str(resources.files("labimpute") / "_assets/iris.csv"))
    X, y = split_label(t, "species")
    (Xtr, ytr), (Xte, yte) = train_test_split(X, y, 0.6, seed=11)
    model = fit_forest(Xtr, ytr, ForestParams(n_trees=50), seed=12)
    pred = predict(model, Xte)
    acc = float(np.mean(pred.values == yte.values))
    assert acc >= 0.9


# ---------------------------------------------------------------------------
# brute-force CART oracle
#
# A slow reference for one tree grown with mtry = p and no bootstrap: at
# every node it enumerates every feature, every midpoint and every category
# subset (prefixes of the mean-target order beyond 10 categories), scores
# each by Gini or squared error computed directly, and applies the tie rule
# of the forest module.  Rows missing the candidate feature are left out of
# its score and follow the majority of the observed rows.

_TIE_RTOL = 1e-10


def _impurity(y, is_class, n_classes):
    if y.size == 0:
        return 0.0
    if is_class:
        counts = np.bincount(y, minlength=n_classes)
        return float(y.size - (counts * counts).sum() / y.size)
    return float(((y - y.mean()) ** 2).sum())


def _midpoint(a, b):
    mid = (a + b) / 2.0
    return mid if mid < b else a


def _side_impurity(left, y, is_class, n_classes):
    """Impurity of the rows each row of the boolean matrix `left` selects
    from y, computed directly: Gini from class counts, or the squared
    deviations from the side's own mean (mean first)."""
    n = left.sum(axis=1)
    size = np.maximum(n, 1)
    if is_class:
        counts = left.astype(np.int64) @ (y[:, None] == np.arange(n_classes))
        return n - (counts * counts).sum(axis=1) / size
    mean = np.where(left, y, 0.0).sum(axis=1) / size
    return (np.where(left, y - mean[:, None], 0.0) ** 2).sum(axis=1)


def _candidates(X, miss, cat_sizes, y, y_raw, rows, is_class, n_classes, min_leaf):
    """Every admissible split of the node, in tie order: (gain, feature,
    threshold or None, left category mask or None, observed left mask,
    observed rows).  Categories are ordered by the mean of y_raw.  All the
    candidates of one feature are scored together, from one boolean
    (candidates x observed rows) left-side matrix."""
    out = []
    for f in range(X.shape[1]):
        obs = rows[~miss[rows, f]]
        x, yo = X[obs, f], y[obs]
        k = cat_sizes[f]
        if k == 0:
            u = np.unique(x)
            cuts = [(_midpoint(a, b), None) for a, b in zip(u[:-1], u[1:])]
            left = x <= np.array([t for t, _ in cuts])[:, None]
        else:
            xs = x.astype(int)
            if k <= 10:
                # subset `code` holds category c when bit c of code is set
                member = (np.arange(1, 2 ** (k - 1))[:, None] >> np.arange(k) & 1).astype(bool)
            else:
                cnt = np.bincount(xs, minlength=k)
                sums = np.bincount(xs, weights=y_raw[obs].astype(float), minlength=k)
                with np.errstate(divide="ignore", invalid="ignore"):
                    mean = np.where(cnt > 0, sums / cnt, np.inf)
                order = np.argsort(mean, kind="stable")
                member = np.arange(k - 1)[:, None] >= np.argsort(order)   # prefix j: order[:j + 1]
            cuts = [(None, row) for row in member]
            left = member[:, xs]
        if not cuts:
            continue
        nl = left.sum(axis=1)
        gain = (_impurity(yo, is_class, n_classes)
                - _side_impurity(left, yo, is_class, n_classes)
                - _side_impurity(~left, yo, is_class, n_classes))
        for i in ((nl >= min_leaf) & (x.size - nl >= min_leaf)).nonzero()[0]:
            (t, cats), g = cuts[i], float(gain[i])
            out.append((g, f, t, cats, left[i], obs))
    return out


def _check_tree(node, X, miss, cat_sizes, y, rows, depth, is_class, n_classes,
                min_leaf, max_depth):
    m = rows.size
    yn = y[rows]
    if not is_class and np.ptp(yn) > 0:
        # squared errors on the node's own scale, so tiny targets cannot
        # underflow; the best split and the relative tie rule are unchanged.
        # Only the node's rows are scaled (a subnormal spread would overflow
        # the others), and the rest stay NaN because they are never read.
        ys = np.full(y.shape, np.nan)
        ys[rows] = (yn - yn.mean()) / np.abs(yn - yn.mean()).max()
    else:
        ys = y
    parent = _impurity(ys[rows], is_class, n_classes)
    tol = _TIE_RTOL * parent
    stop = (m < 2 * min_leaf or (max_depth is not None and depth >= max_depth)
            or np.all(yn == yn[0]))
    cands = [] if stop else _candidates(X, miss, cat_sizes, ys, y, rows, is_class,
                                        n_classes, min_leaf)
    best = max((c[0] for c in cands), default=-np.inf)
    if stop or best <= tol:
        assert isinstance(node, _Leaf), f"depth {depth}: CART stops, grower split"
        if is_class:
            assert node.value == int(np.argmax(np.bincount(yn, minlength=n_classes)))
        else:
            assert node.value == pytest.approx(yn.mean(), rel=1e-12, abs=1e-300)
        return 1
    assert isinstance(node, _Split), f"depth {depth}: CART splits, grower stopped"
    gain, f, t, cats, left_obs, obs = next(c for c in cands if c[0] >= best - tol)
    if cats is not None:
        cats = frozenset(np.flatnonzero(cats).tolist())
    assert node.feature == f
    nl = int(left_obs.sum())
    assert node.majority_left == (nl >= obs.size - nl)
    if cats is None:
        assert node.left_cats is None and node.threshold == t
    else:
        # a bool table over codes 0..k: the CART subset, then the missing code
        k, table = cat_sizes[f], node.left_cats
        assert node.threshold is None and table.dtype == bool and table.shape == (k + 1,)
        assert frozenset(table[:k].nonzero()[0].tolist()) == cats
        assert table[k] == node.majority_left

    x = X[rows, node.feature]
    go_left = x <= node.threshold if cats is None else np.isin(x, sorted(cats))
    go_left = np.where(miss[rows, node.feature], node.majority_left, go_left)
    expect = np.isin(rows, obs[left_obs]) | (miss[rows, f] & node.majority_left)
    assert np.array_equal(go_left, expect)
    seen = ~miss[rows, f]
    got = parent_obs = _impurity(ys[rows[seen]], is_class, n_classes)
    got -= _impurity(ys[rows[seen & go_left]], is_class, n_classes)
    got -= _impurity(ys[rows[seen & ~go_left]], is_class, n_classes)
    assert abs(got / m - best / m) <= 1e-9, (got, best, parent_obs)
    return 1 + sum(
        _check_tree(child, X, miss, cat_sizes, y, part, depth + 1, is_class,
                    n_classes, min_leaf, max_depth)
        for child, part in ((node.left, rows[go_left]), (node.right, rows[~go_left])))


_ADJACENT = [0.6666666666666666, 0.6666666666666667, 0.6666666666666669, 0.5]


@st.composite
def _oracle_case(draw, is_class, with_missing):
    n = draw(st.integers(2, 24))
    p = draw(st.integers(1, 4))
    cols, schema, cat_sizes = [], [], []
    for j in range(p):
        style = draw(st.sampled_from(["ties", "adjacent", "const", "float", "cat", "bigcat"]))
        if style in ("cat", "bigcat"):
            k = draw(st.sampled_from([2, 3, 5, 10] if style == "cat" else [11, 14]))
            col = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
            schema.append(ColumnSchema(f"c{j}", ColumnKind.CATEGORICAL,
                                       tuple(f"k{i}" for i in range(k))))
            cat_sizes.append(k)
        else:
            elems = {"ties": st.integers(0, 3).map(float),
                     "adjacent": st.sampled_from(_ADJACENT),
                     "const": st.just(1.5),
                     "float": st.floats(-5, 5, allow_nan=False)}[style]
            col = draw(st.lists(elems, min_size=n, max_size=n))
            schema.append(ColumnSchema(f"x{j}", ColumnKind.CONTINUOUS))
            cat_sizes.append(0)
        cols.append(np.asarray(col, dtype=np.float64))
    values = np.column_stack(cols)
    miss = np.zeros((n, p), dtype=bool)
    if with_missing:
        rate = draw(st.sampled_from([0.1, 0.3, 0.5]))
        flags = draw(st.lists(st.floats(0, 1), min_size=n * p, max_size=n * p))
        miss = np.asarray(flags).reshape(n, p) < rate
    values = np.where(miss, np.nan, values)
    if is_class:
        yv = np.asarray(draw(st.lists(st.integers(0, draw(st.integers(1, 3))),
                                      min_size=n, max_size=n)))
    else:
        yv = np.asarray(draw(st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 2.5, -3.0]), st.floats(-10, 10)),
            min_size=n, max_size=n)))
    min_leaf = draw(st.integers(1, 3))
    max_depth = draw(st.sampled_from([None, None, 1, 3]))
    return DataTable(tuple(schema), values, miss), yv, cat_sizes, min_leaf, max_depth


@pytest.mark.parametrize("with_missing", [False, True], ids=["complete", "missing"])
@pytest.mark.parametrize("is_class", [True, False], ids=["gini", "sse"])
@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_grower_matches_brute_force_cart(is_class, with_missing, data):
    X, yv, cat_sizes, min_leaf, max_depth = data.draw(_oracle_case(is_class, with_missing))
    if is_class:
        labels = class_labels(yv.tolist(), k=int(yv.max()) + 1)
        y = np.searchsorted(np.unique(yv), yv)
        n_classes = int(np.unique(yv).size)
    else:
        labels, y, n_classes = reg_labels(yv), yv, 0
    params = ForestParams(n_trees=1, mtry=X.n_cols, min_leaf=min_leaf,
                          max_depth=max_depth, bootstrap=False)
    model = fit_forest(X, labels, params, seed=0)
    _check_tree(model.trees[0], X.values, X.missing, cat_sizes, y, np.arange(X.n_rows),
                0, is_class, n_classes, min_leaf, max_depth)


# ---------------------------------------------------------------------------
# predict against a one-row walk
#
# The reference sends one row at a time down the linked nodes under the
# documented rule: a row missing a split's feature follows majority_left,
# others compare with the threshold or read the category table at their
# code.  Votes tie to the smallest class; tree values are summed in tree
# order.


def _walk(node, row, missing):
    while isinstance(node, _Split):
        f = node.feature
        if missing[f]:
            left = node.majority_left
        elif node.left_cats is None:
            left = row[f] <= node.threshold
        else:
            left = bool(node.left_cats[int(row[f])])
        node = node.left if left else node.right
    return node.value


def _walked(model, X):
    out = []
    for row, missing in zip(X.values, X.missing):
        leaves = [_walk(tree, row, missing) for tree in model.trees]
        if model.classes is None:
            total = 0.0
            for v in leaves:
                total += v
            out.append(total / len(leaves))
        else:
            votes = np.bincount(leaves, minlength=model.classes.size)
            out.append(float(model.classes[votes.argmax()]))
    return np.array(out)


@st.composite
def _predict_case(draw):
    """A small forest fitted on a table that may have holes, and a batch to predict:
    rows of repeated quarter-grid values (which hit thresholds exactly),
    wide values, all-missing rows, no row, one row, or one row repeated so
    that every split sends the whole batch one way; and where the batch's
    (row, tree) pair count stands against the chunk size: one below, at or
    one above it, or None for the default size."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ks = draw(st.lists(st.sampled_from([0, 0, 2, 3, 10, 11, 13]), min_size=1, max_size=4))
    schema = tuple(ColumnSchema(f"x{j}", ColumnKind.CONTINUOUS) if k == 0 else
                   ColumnSchema(f"c{j}", ColumnKind.CATEGORICAL, tuple(f"v{i}" for i in range(k)))
                   for j, k in enumerate(ks))

    def table(m, rate):
        cols = [rng.integers(0, k, m) if k else
                np.where(rng.random(m) < 0.8, rng.integers(-12, 13, m) / 4, 10 * rng.normal(size=m))
                for k in ks]
        values = np.column_stack(cols).astype(np.float64)
        miss = rng.random(values.shape) < rate
        return values, miss

    n = draw(st.integers(4, 40))
    values, miss = table(n, draw(st.sampled_from([0.0, 0.1, 0.3])))
    X = DataTable(schema, np.where(miss, np.nan, values), miss)
    if draw(st.booleans()):
        y = class_labels(rng.integers(0, draw(st.integers(2, 4)), n).tolist(), k=4)
    else:
        y = reg_labels(rng.normal(size=n) * 10 ** draw(st.integers(-3, 3)))
    params = ForestParams(n_trees=draw(st.integers(2, 6)), min_leaf=draw(st.integers(1, 3)),
                          max_depth=draw(st.sampled_from([None, None, 2])))

    shape = draw(st.sampled_from(["batch", "batch", "empty", "one", "same"]))
    m = 0 if shape == "empty" else 1 if shape == "one" else draw(st.integers(1, 30))
    values, miss = table(m, draw(st.sampled_from([0.0, 0.2, 0.5])))
    if shape == "same":
        values, miss = values[[0] * m], miss[[0] * m]
    if draw(st.booleans()):
        miss[rng.random(m) < 0.3] = True   # all-missing rows
    Q = DataTable(schema, np.where(miss, np.nan, values), miss)
    return X, y, params, draw(st.integers(0, 2 ** 16)), Q, draw(st.sampled_from([None, -1, 0, 1]))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_predict_case())
def test_predict_matches_a_one_row_walk(case):
    X, y, params, seed, Q, edge = case
    model = fit_forest(X, y, params, seed=seed)
    want = _walked(model, Q)
    pairs = Q.n_rows * params.n_trees
    chunk = forest_module._PAIRS if edge is None or not pairs else pairs - edge
    with mock.patch.object(forest_module, "_PAIRS", chunk):
        assert predict(model, Q).values.tobytes() == want.tobytes()
        assert predict_with_missing(model, Q).values.tobytes() == want.tobytes()
    complete = (~Q.missing.any(axis=1)).nonzero()[0]
    if complete.size:
        got = predict(model, Q.take_rows(complete)).values
        assert got.tobytes() == want[complete].tobytes()
