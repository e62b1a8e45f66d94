import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labimpute._rng import child_seed
from labimpute.data import (
    ColumnKind,
    ColumnSchema,
    DataTable,
    LabelVector,
    apply_mcar,
)
from labimpute.errors import DataError
from labimpute.forest import ForestParams, fit_forest, predict
from labimpute.imputers import (
    IterationTrace,
    MiceParams,
    MissForestParams,
    _set_up,
    impute,
    mice_impute,
    missforest_impute,
)

from equality import tables_equal


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
# the shared start
# ---------------------------------------------------------------------------

def test_init_impute_mean_and_mode():
    schema = (cont("x"), cat("c", ["a", "b", "d"]))
    t = table([[1.0, 0.0], [3.0, 1.0], [np.nan, 1.0], [2.0, np.nan]],
              [[0, 0], [0, 0], [1, 0], [0, 1]], schema)
    mask, _, cells = _set_up(t, "test")
    assert mask is t.missing and not np.isnan(cells).any()
    assert cells[2, 0] == 2.0          # mean of 1, 3, 2
    assert cells[3, 1] == 1.0          # mode of {0, 1, 1}
    # observed cells untouched
    assert np.array_equal(cells[:2], t.values[:2])


def test_init_impute_mode_tie_takes_smallest_index():
    schema = (cat("c", ["a", "b"]), cont("x"))
    t = table([[0.0, 1.0], [1.0, 1.0], [np.nan, 1.0]],
              [[0, 0], [0, 0], [1, 0]], schema)
    assert _set_up(t, "test")[2][2, 0] == 0.0


def test_init_impute_rejects_fully_missing_column():
    t = table([[np.nan], [np.nan]], [[1], [1]])
    with pytest.raises(DataError, match="x0"):
        _set_up(t, "test")


def test_order_columns_ascending_with_index_ties():
    # two holes in x0, one each in x1 and x2 (tied), none in x3
    t = table(
        [[np.nan, 1.0, np.nan, 1.0], [np.nan, np.nan, 2.0, 1.0], [3.0, 1.0, 2.0, 1.0]],
        [[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]],
    )
    assert _set_up(t, "test")[1] == [1, 2, 0]


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
    assert tables_equal(out, mice_impute(t, MiceParams(n_iter=3)))
    assert isinstance(trace, IterationTrace) and 1 <= len(trace.sweeps) <= 3
    assert [s.iteration for s in trace.sweeps] == list(range(1, len(trace.sweeps) + 1))
    assert trace.stop_reason in {"fixed_point", "max_iter"}
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
    # a mean past the float64 range would hand the forests an infinite fill
    huge = table([[1e308, 1.0], [1.7e308, 2.0], [np.nan, 3.0]], [[0, 0], [0, 0], [1, 0]],
                 schema=(cont("huge"), cont("b")))
    with pytest.raises(DataError, match="^column 'huge' has no finite mean; cannot impute$"):
        run(huge)


def test_missforest_refuses_a_column_whose_node_sums_overflow():
    # the mean (4.25e306) is finite, but a bootstrap's sums are not
    n = 40
    big = np.where(np.arange(n) < 17, 1e307, 0.0)
    vals = np.column_stack([big, np.arange(n, dtype=float)])
    miss = np.zeros((n, 2), dtype=bool)
    miss[[30, 31], 0] = True
    miss[[0, 35], 1] = True
    t = table(np.where(miss, np.nan, vals), miss, schema=(cont("big"), cont("b")))
    with pytest.raises(DataError, match="^target 'big' is too large"):
        missforest_impute(t, small_params())


def test_missforest_recovers_strong_linear_signal():
    rng = np.random.default_rng(5)
    n = 80
    x = rng.uniform(-1, 1, n)
    vals = np.column_stack([x, 2.0 * x, -x])
    t = DataTable(tuple(cont(f"x{j}") for j in range(3)), vals, np.zeros((n, 3), dtype=bool))
    masked, mask = apply_mcar(t, 0.2, seed=6)
    out, _ = missforest_impute(masked, MissForestParams(ForestParams(n_trees=40), seed=1))
    err = out.values[mask] - t.values[mask]
    baseline = _set_up(masked, "test")[2]
    err0 = baseline[mask] - t.values[mask]
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


@pytest.mark.parametrize("target", [cont("y"), cat("c", ["a", "b", "d"])])
def test_mice_singular_design_instructs_ridge_when_most_rows_are_missing(target):
    # the same duplicated predictors with four of seven cells hidden, so the
    # fit forms the observed rows' normal matrix directly instead of
    # downdating the Gram matrix of all rows
    x = np.arange(1.0, 8.0)
    vals = np.column_stack([x, x, np.array([0.0, np.nan, 1.0, np.nan, 2.0, np.nan, np.nan])])
    miss = np.zeros((7, 3), dtype=bool)
    miss[[1, 3, 5, 6], 2] = True
    t = DataTable((cont("x0"), cont("x1"), target), vals, miss)
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


def _reference_start(table):
    """The engines' start of the imputers module docstring written out
    plainly: the mean/mode-filled cells, and the columns with holes sorted
    by (missing count, index)."""
    mask = table.missing
    cur = table.values.copy()
    for j, col in enumerate(table.schema):
        obs = table.values[~mask[:, j], j]
        if col.kind is ColumnKind.CONTINUOUS:
            cur[mask[:, j], j] = obs.mean()
        else:   # the mode, ties to the smallest category
            counts = np.bincount(obs.astype(np.int64), minlength=col.n_categories)
            cur[mask[:, j], j] = float(np.argmax(counts))
    counts = mask.sum(axis=0)
    return cur, sorted((j for j in range(table.n_cols) if counts[j]), key=lambda j: (counts[j], j))


def _reference_mice(table, params):
    """The naive loop: the design rebuilt for every column fit and one
    normal matrix per one-vs-rest category."""
    mask = table.missing
    cur, order = _reference_start(table)
    observed_cats = {
        j: np.unique(table.values[~mask[:, j], j]).astype(np.int64)
        for j in table.categorical_columns()
    }
    for _ in range(params.n_iter):
        for s in order:
            mis = mask[:, s]
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


def mixed_k_table(seed, n, absent_category, rate=0.25):
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
    return apply_mcar(t, rate, seed=seed + 1)[0]


def _assert_near_reference(t, got, expected):
    cats = t.categorical_columns()
    conts = t.continuous_columns()
    assert np.array_equal(got[:, cats], expected[:, cats])
    if conts.size:
        gap = np.abs(got[:, conts] - expected[:, conts]).max()
        assert gap <= 1e-12 * np.abs(expected[:, conts]).max()


def _check_mice_against_reference(seed, n, ridge, rate):
    """The engine reads its normal equations from a maintained Gram matrix,
    so it rounds differently from the direct normal equations of
    _reference_mice: every categorical cell must be identical and every
    continuous cell within 1e-12 of the largest reference value."""
    # a never-seen category leaves an all-zero design column, which only a
    # positive ridge can carry
    t = mixed_k_table(seed, n, absent_category=ridge > 0, rate=rate)
    params = MiceParams(n_iter=4, ridge=ridge)
    _assert_near_reference(t, mice_impute(t, params).values, _reference_mice(t, params))
    if ridge > 0:
        j = [col.name for col in t.schema].index("c5")
        assert 4.0 not in t.values[~t.missing[:, j], j]


@pytest.mark.parametrize("seed", [3, 5, 11])
@pytest.mark.parametrize("ridge", [0.0, 1e-8])
def test_mice_matches_naive_loop_bit_for_bit(seed, ridge):
    # a quarter of each column missing: every fit downdates the Gram matrix
    _check_mice_against_reference(seed, 160, ridge, rate=0.25)


@pytest.mark.parametrize("seed", [3, 5, 11])
@pytest.mark.parametrize("ridge", [0.0, 1e-8])
@pytest.mark.parametrize("rate", [0.5, 0.6])
def test_mice_matches_naive_loop_at_high_rates(rate, seed, ridge):
    # at 0.6 every fit forms its observed rows' Gram matrix directly; at 0.5
    # the fits of about half the columns downdate and the rest form it
    # directly.  400 rows, since at 160 the reference's own design is
    # singular at ridge 0 and ill-conditioned at 1e-8
    _check_mice_against_reference(seed, 400, ridge, rate)


def _mice_runs_to_30_sweeps():
    """40 small mixed tables and MICE's output and trace on each at
    n_iter = 30; a few of them reach a fixed point."""
    rng = np.random.default_rng(3)
    params = MiceParams(n_iter=30)
    for _ in range(40):
        t, _ = random_mixed(rng, 60, 4, 0.25)
        yield t, params, *impute(t, params)


def test_mice_stops_early_at_a_fixed_point_with_the_output_of_every_sweep():
    # MICE draws nothing and forms G afresh from a design that is a function
    # of the cells, so a sweep that changes no cell would repeat forever
    fixed = []
    for t, params, out, trace in _mice_runs_to_30_sweeps():
        if trace.stop_reason == "fixed_point":
            assert len(trace.sweeps) < params.n_iter
            _assert_near_reference(t, out.values, _reference_mice(t, params))
            fixed.append(t)
    assert any(t.continuous_columns().size for t in fixed), "no fixed point with a continuous column"


def test_mice_never_stops_on_a_rising_statistic():
    # the rise rule is missForest's alone; on most of these tables a MICE
    # statistic rises, and the sweeps go on
    rises = 0
    for _, _, _, trace in _mice_runs_to_30_sweeps():
        assert trace.stop_reason in {"fixed_point", "max_iter"}
        rises += any(b.delta_continuous > a.delta_continuous
                     for a, b in zip(trace.sweeps, trace.sweeps[1:])
                     if a.delta_continuous is not None and b.delta_continuous is not None)
    assert rises, "no rising statistic in the sample"


def _reference_missforest(table, params):
    """The sweep loop of the module docstring written out plainly: a
    checked table and label per column fit, the two statistics inline.
    Returns the completed cells, the trace rows and the stop reason."""
    mask = table.missing
    if not mask.any():
        return table.values, [], "no_missing"
    cur, order = _reference_start(table)
    seeds = {s: child_seed(params.seed, 424243, s) for s in order}
    cont = [j for j, c in enumerate(table.schema) if c.kind is ColumnKind.CONTINUOUS]
    cats = [j for j, c in enumerate(table.schema) if c.kind is ColumnKind.CATEGORICAL]
    sweeps, prev = [], (None, None)
    for it in range(1, params.max_iter + 1):
        old = cur.copy()
        for s in order:
            mis, col = mask[:, s], table.schema[s]
            keep = [j for j in range(table.n_cols) if j != s]
            schema = tuple(table.schema[j] for j in keep)
            X = DataTable(schema, cur[~mis][:, keep], np.zeros((int((~mis).sum()), len(keep)), bool))
            Q = DataTable(schema, cur[mis][:, keep], np.zeros((int(mis.sum()), len(keep)), bool))
            y = LabelVector(col.kind, cur[~mis, s], np.zeros(int((~mis).sum()), bool),
                            col.categories, col.name)
            cur[mis, s] = predict(fit_forest(X, y, params.forest, seeds[s]), Q).values
        dc = dg = None
        if cont:
            num = float(((cur[:, cont] - old[:, cont]) ** 2).sum())
            den = float((cur[:, cont] ** 2).sum())
            dc = None if den == 0.0 else num / den
        holes = mask[:, cats]
        if holes.any():
            changed = int((cur[:, cats][holes] != old[:, cats][holes]).sum())
            dg = changed / int(holes.sum())
        sweeps.append((it, dc, dg))
        if any(d is not None and p is not None and d > p for d, p in zip((dc, dg), prev)):
            return old, sweeps, "delta_increase"
        if np.array_equal(cur, old):
            return cur, sweeps, "fixed_point"
        prev = dc, dg
    return cur, sweeps, "max_iter"


@st.composite
def _missforest_case(draw):
    """A small table of one of three column mixes, with missing counts from
    a short range so that they tie often; one in six has every continuous
    cell 0, and one in twenty no missing cell."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, p = int(rng.integers(10, 41)), int(rng.integers(2, 5))
    kinds = [[0] * p, [1] * p, [0, 1] + rng.integers(0, 2, p - 2).tolist()][rng.integers(3)]
    zero = rng.integers(6) == 0
    schema, cols = [], []
    for j, is_cat in enumerate(kinds):
        if is_cat:
            k = int(rng.choice([2, 3, 5, 12]))
            schema.append(cat(f"c{j}", [f"v{i}" for i in range(k)]))
            cols.append(rng.integers(0, k, n).astype(float))
        else:
            schema.append(cont(f"x{j}"))
            cols.append(np.zeros(n) if zero else rng.integers(-4, 5, n) * 0.5)
    missing = np.zeros((n, p), dtype=bool)
    if rng.integers(20):
        for j in range(p):
            missing[rng.choice(n, size=int(rng.integers(0, 6)), replace=False), j] = True
    params = MissForestParams(forest=ForestParams(n_trees=int(rng.integers(1, 4))),
                              max_iter=int(rng.integers(1, 7)), seed=int(rng.integers(100)))
    return DataTable(tuple(schema), np.column_stack(cols), missing), params


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_missforest_case())
def test_missforest_matches_a_plain_loop_bit_for_bit(case):
    t, params = case
    values, sweeps, stop = _reference_missforest(t, params)
    out, trace = missforest_impute(t, params)
    assert out.values.view(np.uint64).tobytes() == values.view(np.uint64).tobytes()
    assert [(s.iteration, s.delta_continuous, s.delta_categorical)
            for s in trace.sweeps] == sweeps
    assert trace.stop_reason == stop
