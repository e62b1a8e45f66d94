import numpy as np
import pytest

from labimpute.data import (
    ColumnKind,
    ColumnSchema,
    DataTable,
    apply_mcar,
    tables_equal,
)
from labimpute.errors import DataError
from labimpute.forest import ForestParams
from labimpute.imputers import (
    IterationTrace,
    MiceParams,
    MissForestParams,
    delta_categorical,
    delta_continuous,
    impute,
    init_impute,
    mice_impute,
    missforest_impute,
    order_columns_by_missing,
)


def cont(name):
    return ColumnSchema(name, ColumnKind.CONTINUOUS)


def cat(name, labels):
    return ColumnSchema(name, ColumnKind.CATEGORICAL, tuple(labels))


def table(values, missing, schema=None):
    values = np.asarray(values, dtype=np.float64)
    if schema is None:
        schema = tuple(cont(f"x{j}") for j in range(values.shape[1]))
    return DataTable(schema, values, np.asarray(missing, dtype=bool))


def random_mixed(rng, n, p, rate):
    schema = []
    cols = []
    for j in range(p):
        if rng.random() < 0.4:
            k = int(rng.integers(2, 5))
            schema.append(cat(f"c{j}", [f"v{i}" for i in range(k)]))
            cols.append(rng.integers(0, k, n).astype(float))
        else:
            schema.append(cont(f"x{j}"))
            cols.append(rng.normal(0, 2, n))
    t = DataTable(tuple(schema), np.column_stack(cols), np.zeros((n, p), dtype=bool))
    return apply_mcar(t, rate, seed=int(rng.integers(1 << 30)))


# ---------------------------------------------------------------------------
# init / ordering / deltas
# ---------------------------------------------------------------------------

def test_init_impute_mean_and_mode():
    schema = (cont("x"), cat("c", ["a", "b", "d"]))
    t = table([[1.0, 0.0], [3.0, 1.0], [np.nan, 1.0], [2.0, np.nan]],
              [[0, 0], [0, 0], [1, 0], [0, 1]], schema)
    out = init_impute(t)
    assert out.is_complete()
    assert out.values[2, 0] == 2.0          # mean of 1, 3, 2
    assert out.values[3, 1] == 1.0          # mode of {0, 1, 1}
    # observed cells untouched
    assert np.array_equal(out.values[:2], t.values[:2])


def test_init_impute_mode_tie_takes_smallest_index():
    schema = (cat("c", ["a", "b"]), cont("x"))
    t = table([[0.0, 1.0], [1.0, 1.0], [np.nan, 1.0]],
              [[0, 0], [0, 0], [1, 0]], schema)
    out = init_impute(t)
    assert out.values[2, 0] == 0.0


def test_init_impute_rejects_fully_missing_column():
    t = table([[np.nan], [np.nan]], [[1], [1]])
    with pytest.raises(DataError, match="x0"):
        init_impute(t)


def test_order_columns_ascending_with_index_ties():
    t = table(
        [[np.nan, 1.0, np.nan], [np.nan, 1.0, 2.0], [3.0, 1.0, 2.0]],
        [[1, 0, 1], [1, 0, 0], [0, 0, 0]],
    )
    assert order_columns_by_missing(t) == [1, 2, 0]


def test_delta_continuous_hand_value_and_scale_invariance():
    old = np.array([[1.0, 1.0], [1.0, 1.0]])
    new = old.copy()
    new[0, 0] = 2.0
    # (2-1)^2 / (4+1+1+1) ... only column 0 in scope: (2-1)^2/(2^2+1^2)=0.2
    assert delta_continuous(new, old, [0]) == pytest.approx(1.0 / 5.0)
    # single-cell example over one column with one row
    assert delta_continuous(np.array([[2.0]]), np.array([[1.0]]), [0]) == 0.25
    c = 3.7
    assert delta_continuous(new * c, old * c, [0]) == pytest.approx(1.0 / 5.0)


def test_delta_continuous_zero_denominator_errors():
    z = np.zeros((2, 1))
    with pytest.raises(DataError):
        delta_continuous(z, z + 1.0, [0])


def test_delta_categorical_counts_only_masked_cells():
    old = np.array([[0.0, 0.0], [1.0, 1.0]])
    new = np.array([[1.0, 1.0], [1.0, 0.0]])
    missing = np.array([[True, False], [False, True]])
    # masked cells: (0,0) changed, (1,1) changed -> 2/2; observed changes ignored
    assert delta_categorical(new, old, [0, 1], missing) == 1.0
    missing2 = np.array([[True, False], [False, False]])
    assert delta_categorical(new, old, [0, 1], missing2) == 1.0
    with pytest.raises(DataError):
        delta_categorical(new, old, [0, 1], np.zeros((2, 2), dtype=bool))


# ---------------------------------------------------------------------------
# missforest
# ---------------------------------------------------------------------------

def small_params(seed=0, max_iter=10):
    return MissForestParams(forest=ForestParams(n_trees=10), max_iter=max_iter, seed=seed)


def test_missforest_complete_table_is_unchanged():
    rng = np.random.default_rng(0)
    t, _ = random_mixed(rng, 20, 4, 0.0)
    out, trace = missforest_impute(t, small_params())
    assert tables_equal(out, t)
    assert trace.sweeps == [] and trace.stop_reason == "no_missing"


def test_missforest_completes_and_preserves_observed():
    rng = np.random.default_rng(1)
    t, mask = random_mixed(rng, 40, 5, 0.3)
    out, trace = missforest_impute(t, small_params(seed=5))
    assert out.is_complete()
    obs = ~t.missing
    assert np.array_equal(out.values[obs], t.values[obs])
    assert 1 <= len(trace.sweeps) <= 10
    assert trace.stop_reason in {"delta_increase", "fixed_point", "max_iter"}


def test_missforest_categorical_closure():
    rng = np.random.default_rng(2)
    schema = (cat("c", ["a", "b", "d", "e"]), cont("x"), cont("z"))
    n = 50
    codes = rng.integers(0, 2, n).astype(float)  # categories d, e never observed
    vals = np.column_stack([codes, rng.normal(size=n), rng.normal(size=n)])
    t = DataTable(schema, vals, np.zeros((n, 3), dtype=bool))
    masked, _ = apply_mcar(t, 0.3, seed=3)
    out, _ = missforest_impute(masked, small_params(seed=7))
    filled = out.values[masked.missing[:, 0], 0]
    assert set(np.unique(filled)) <= {0.0, 1.0}


def test_missforest_is_deterministic():
    rng = np.random.default_rng(3)
    t, _ = random_mixed(rng, 30, 4, 0.25)
    a, tra = missforest_impute(t, small_params(seed=9))
    b, trb = missforest_impute(t, small_params(seed=9))
    assert tables_equal(a, b)
    assert tra.sweeps == trb.sweeps and tra.stop_reason == trb.stop_reason


def test_impute_picks_the_engine_from_the_params_type():
    rng = np.random.default_rng(4)
    t, _ = random_mixed(rng, 30, 4, 0.25)
    out, trace = impute(t, small_params(seed=9))
    ref, ref_trace = missforest_impute(t, small_params(seed=9))
    assert tables_equal(out, ref) and trace == ref_trace
    out, trace = impute(t, MiceParams(n_iter=3))
    assert tables_equal(out, mice_impute(t, MiceParams(n_iter=3))) and trace is None
    with pytest.raises(DataError, match="unknown imputer parameter type"):
        impute(t, ForestParams())


def test_params_keep_exact_integers():
    # a 63-bit seed is exact as an int but not as a float
    assert small_params(seed=2**62 + 1).seed == 2**62 + 1
    n_iter = MiceParams(n_iter=3.0).n_iter
    assert n_iter == 3 and type(n_iter) is int


def test_missforest_returns_previous_matrix_on_delta_increase():
    rng = np.random.default_rng(4)
    found = False
    for seed in range(40):
        t, _ = random_mixed(rng, 25, 4, 0.35)
        out, trace = missforest_impute(t, small_params(seed=seed))
        if trace.stop_reason != "delta_increase":
            continue
        found = True
        # replay the loop one sweep shorter: capped run must return the
        # same matrix the increase rule rolled back to
        k = len(trace.sweeps) - 1
        ref, ref_trace = missforest_impute(t, small_params(seed=seed, max_iter=k))
        assert tables_equal(out, ref)
        assert [s.iteration for s in ref_trace.sweeps] == list(range(1, k + 1))
        break
    assert found, "no delta_increase stop observed in the seed sweep"


def test_missforest_single_column_rejected():
    t = table([[1.0], [np.nan]], [[0], [1]])
    with pytest.raises(DataError):
        missforest_impute(t, small_params())


@pytest.mark.parametrize("engine, run", [
    ("forest imputation", lambda t: missforest_impute(t, small_params())),
    ("chained-equations imputation", lambda t: mice_impute(t, MiceParams())),
])
def test_engines_share_the_set_up_errors(engine, run):
    gone = table([[1.0, np.nan], [2.0, np.nan], [3.0, np.nan]], [[0, 1]] * 3,
                 schema=(cont("a"), cont("gone")))
    with pytest.raises(DataError, match="^column 'gone' is fully missing; cannot impute$"):
        run(gone)
    with pytest.raises(DataError, match=f"^{engine} needs at least two columns$"):
        run(table([[1.0], [np.nan], [2.0]], [[0], [1], [0]]))
    # the fully-missing check comes first
    with pytest.raises(DataError, match="^column 'x0' is fully missing; cannot impute$"):
        run(table([[np.nan], [np.nan]], [[1], [1]]))


def test_missforest_recovers_strong_linear_signal():
    rng = np.random.default_rng(5)
    n = 80
    x = rng.uniform(-1, 1, n)
    vals = np.column_stack([x, 2.0 * x, -x])
    t = DataTable(tuple(cont(f"x{j}") for j in range(3)), vals, np.zeros((n, 3), dtype=bool))
    masked, mask = apply_mcar(t, 0.2, seed=6)
    out, _ = missforest_impute(masked, MissForestParams(ForestParams(n_trees=40), seed=1))
    err = out.values[mask] - t.values[mask]
    baseline = init_impute(masked)
    err0 = baseline.values[mask] - t.values[mask]
    assert np.mean(err ** 2) < 0.35 * np.mean(err0 ** 2)


def test_trace_csv_export(tmp_path):
    rng = np.random.default_rng(6)
    t, _ = random_mixed(rng, 25, 4, 0.3)
    _, trace = missforest_impute(t, small_params(seed=2))
    out = tmp_path / "trace.csv"
    trace.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,delta_continuous,delta_categorical"
    assert len(lines) == len(trace.sweeps) + 1


# ---------------------------------------------------------------------------
# mice
# ---------------------------------------------------------------------------

def test_mice_recovers_exact_linear_dependence():
    # x2 = 2 * x1 exactly; the one hidden x1 cell must come back as x2 / 2
    x1 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    vals = np.column_stack([x1, 2.0 * x1])
    miss = np.zeros((5, 2), dtype=bool)
    miss[2, 0] = True
    t = table(vals, miss)
    out = mice_impute(t, MiceParams())
    assert abs(out.values[2, 0] - 3.0) <= 1e-8


def test_mice_complete_table_is_unchanged():
    rng = np.random.default_rng(7)
    t, _ = random_mixed(rng, 15, 3, 0.0)
    assert tables_equal(mice_impute(t, MiceParams()), t)


def test_mice_completes_preserves_and_closes_categories():
    rng = np.random.default_rng(8)
    t, _ = random_mixed(rng, 45, 5, 0.3)
    out = mice_impute(t, MiceParams(n_iter=4))
    assert out.is_complete()
    obs = ~t.missing
    assert np.array_equal(out.values[obs], t.values[obs])
    for j in t.categorical_columns():
        seen = set(np.unique(t.values[~t.missing[:, j], j]))
        filled = set(np.unique(out.values[t.missing[:, j], j]))
        assert filled <= seen


def test_mice_is_deterministic():
    rng = np.random.default_rng(9)
    t, _ = random_mixed(rng, 30, 4, 0.25)
    a = mice_impute(t, MiceParams(n_iter=3))
    b = mice_impute(t, MiceParams(n_iter=3))
    assert tables_equal(a, b)


def test_mice_singular_design_instructs_ridge():
    # two identical predictor columns make the unpenalized system singular
    x = np.array([1.0, 2.0, 3.0, 4.0])
    vals = np.column_stack([x, x, np.array([1.0, np.nan, 2.0, 1.0])])
    miss = np.zeros((4, 3), dtype=bool)
    miss[1, 2] = True
    t = table(vals, miss)
    with pytest.raises(DataError, match="ridge"):
        mice_impute(t, MiceParams(ridge=0.0))
    out = mice_impute(t, MiceParams(ridge=1e-8))
    assert out.is_complete()


def test_mice_categorical_tie_takes_smallest_index():
    # a categorical column unrelated to its predictors: scoring degenerates
    # and the argmax must fall back to the smallest observed index
    schema = (cat("c", ["a", "b"]), cont("x"))
    vals = np.array([[0.0, 1.0], [1.0, 1.0], [np.nan, 1.0], [0.0, 1.0], [1.0, 1.0]])
    miss = np.zeros((5, 2), dtype=bool)
    miss[2, 0] = True
    t = DataTable(schema, vals, miss)
    out = mice_impute(t, MiceParams())
    # x is constant: both class scores equal their 0.5 prevalence, tie -> a
    assert out.values[2, 0] == 0.0


def test_mice_singular_design_instructs_ridge_for_categorical_target():
    # the same duplicated predictors, now with a categorical column to fill
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    schema = (cont("x0"), cont("x1"), cat("c", ["a", "b", "d"]))
    vals = np.column_stack([x, x, np.array([0.0, np.nan, 1.0, 2.0, 1.0])])
    miss = np.zeros((5, 3), dtype=bool)
    miss[1, 2] = True
    t = DataTable(schema, vals, miss)
    with pytest.raises(DataError, match="ridge"):
        mice_impute(t, MiceParams(ridge=0.0))
    assert mice_impute(t, MiceParams(ridge=1e-8)).is_complete()


@pytest.mark.parametrize("ridge", [np.nan, np.inf, -np.inf, -1.0, "a", np.True_])
def test_mice_params_reject_bad_ridge(ridge):
    with pytest.raises(DataError, match="ridge"):
        MiceParams(ridge=ridge)


def _reference_ridge_solve(A, b, ridge):
    M = A.T @ A
    reg = np.full(M.shape[0], ridge)
    reg[0] = 0.0
    M = M + np.diag(reg)
    if ridge == 0.0 and np.linalg.matrix_rank(M) < M.shape[0]:
        raise DataError("singular design; set ridge > 0 to regularize")
    return np.linalg.solve(M, A.T @ b)


def _reference_design(table, values, skip):
    """Intercept, then every column but `skip` in table order: a continuous
    column as is, a categorical one as indicators of categories 1..k-1."""
    cols = [np.ones(table.n_rows)]
    for j, col in enumerate(table.schema):
        if j == skip:
            continue
        if col.kind is ColumnKind.CONTINUOUS:
            cols.append(values[:, j])
        else:
            cols.extend((values[:, j] == k).astype(np.float64)
                        for k in range(1, col.n_categories))
    return np.column_stack(cols)


def _reference_mice(table, params):
    """The naive loop: the design rebuilt for every column fit and one
    normal matrix per one-vs-rest category."""
    mask = table.missing
    cur = init_impute(table).values.copy()
    observed_cats = {
        j: np.unique(table.values[~mask[:, j], j]).astype(np.int64)
        for j in table.categorical_columns()
    }
    for _ in range(params.n_iter):
        for s in order_columns_by_missing(table):
            mis = mask[:, s]
            if not mis.any():
                continue
            obs = ~mis
            A = _reference_design(table, cur, s)
            if table.schema[s].kind is ColumnKind.CONTINUOUS:
                cur[mis, s] = A[mis] @ _reference_ridge_solve(A[obs], cur[obs, s], params.ridge)
            else:
                cats = observed_cats[int(s)]
                scores = np.empty((int(mis.sum()), cats.size))
                for i, c in enumerate(cats):
                    b = (cur[obs, s] == c).astype(np.float64)
                    scores[:, i] = A[mis] @ _reference_ridge_solve(A[obs], b, params.ridge)
                cur[mis, s] = cats[np.argmax(scores, axis=1)].astype(np.float64)
    return cur


def mixed_k_table(seed, n, absent_category):
    """Continuous columns and categoricals of k = 2..8 with shared signal;
    with absent_category the k = 5 column never takes its last category."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    schema, cols = [], []
    for j in range(3):
        schema.append(cont(f"x{j}"))
        cols.append(z @ rng.normal(size=2) + 0.5 * rng.normal(size=n))
    for k in range(2, 9):
        used = k - 1 if absent_category and k == 5 else k
        view = z @ rng.normal(size=2) + rng.normal(size=n)
        codes = np.searchsorted(np.quantile(view, np.linspace(0, 1, used + 1)[1:-1]), view)
        schema.append(cat(f"c{k}", [f"v{i}" for i in range(k)]))
        cols.append(codes.astype(float))
    t = DataTable(tuple(schema), np.column_stack(cols), np.zeros((n, len(cols)), dtype=bool))
    return apply_mcar(t, 0.25, seed=seed + 1)[0]


@pytest.mark.parametrize("seed", [3, 5, 11])
@pytest.mark.parametrize("ridge", [0.0, 1e-8])
def test_mice_matches_naive_loop_bit_for_bit(seed, ridge):
    # a never-seen category leaves an all-zero design column, which only a
    # positive ridge can carry
    t = mixed_k_table(seed, 160, absent_category=ridge > 0)
    params = MiceParams(n_iter=4, ridge=ridge)
    expected = _reference_mice(t, params)
    got = mice_impute(t, params).values
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    if ridge > 0:
        j = [col.name for col in t.schema].index("c5")
        assert 4.0 not in t.values[~t.missing[:, j], j]
