"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test prints exactly one line of the form

    ACCEPTANCE <n>: PASS — <measured numbers>
    ACCEPTANCE <n>: FAIL — <measured numbers>

straight to the terminal (bypassing capture), then asserts.  Criteria with a
hard wall-clock budget assert on elapsed time as well; the long-running
statistical reproductions (4-6, 8) are bounded only by patience.
"""
from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np
import pytest

from labimpute import (
    ColumnKind,
    ColumnSchema,
    DataTable,
    ExperimentConfig,
    ForestParams,
    MiceParams,
    MissForestParams,
    Scenario,
    TheoremInstance,
    apply_mcar,
    cbmi_predict,
    di_impute,
    iul_impute,
    labels_equal,
    mice_impute,
    missforest_impute,
    resolve_dataset,
    run_experiment,
    sample_instance,
    split_label,
    tables_equal,
    train_test_split,
    verify_theorem1,
)
from labimpute.cli import cli_main
from labimpute.data import round_half_away

SEED = 20260816


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _mean(report, method: str, rate: float, field: str) -> float:
    vals = [
        getattr(r, field)
        for r in report.records
        if r.method == method and abs(r.rate - rate) < 1e-9 and r.status == "ok"
    ]
    assert len(vals) == 10, f"{method}@{rate}: expected 10 ok runs, got {len(vals)}"
    return statistics.fmean(vals)


def _sign_instance(master_seed: int) -> TheoremInstance:
    rng = np.random.default_rng(master_seed)
    n = 12
    z = rng.normal(0, 2, n)
    y = np.abs(rng.normal(0, 2, n))
    x = rng.normal(0, 2, n)
    return TheoremInstance(x, z, y)


def test_acceptance_01_sse_identity_and_win_condition(capsys):
    tol = 1e-8
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    neg_seen = pos_seen = 0
    for _ in range(1000):
        n = int(rng.integers(5, 51))
        inst = sample_instance(rng, n)
        rep = verify_theorem1(inst, tol=tol)  # raises on any violation
        scale = max(1.0, abs(rep.sse_di))
        worst = max(worst, rep.identity_residual / scale)
        assert rep.identity_residual <= tol * scale
        vsum = rep.v_plus + rep.v_minus
        # both directions of the win condition, on every instance
        if rep.iul_wins:
            assert vsum >= -tol * scale
            pos_seen += 1
        else:
            assert vsum < 0
            neg_seen += 1
    # constructed instance per sign of V+ + V-
    neg = verify_theorem1(_sign_instance(0))
    assert neg.v_plus + neg.v_minus < -1e-6
    assert not neg.iul_wins and neg.sse_iul > neg.sse_di
    pos = verify_theorem1(_sign_instance(1))
    assert pos.v_plus + pos.v_minus > 1e-6
    assert pos.iul_wins and pos.sse_iul < pos.sse_di
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _verdict(capsys, 1, ok,
             f"1000 instances, worst scaled residual {worst:.2e} <= 1e-8, "
             f"win condition two-way on all ({pos_seen} wins / {neg_seen} losses), "
             f"constructed sign cases hold, {elapsed:.2f}s < 5s")


def _random_mixed_table(rng: np.random.Generator) -> DataTable:
    n = int(rng.integers(8, 61))
    p = int(rng.integers(2, 9))
    schema = []
    cols = []
    for j in range(p):
        if rng.random() < 0.6:
            schema.append(ColumnSchema(f"c{j}", ColumnKind.CONTINUOUS))
            cols.append(rng.normal(0.0, 1.0, n))
        else:
            k = int(rng.integers(2, 5))
            cats = tuple(f"k{j}_{i}" for i in range(k))
            schema.append(ColumnSchema(f"c{j}", ColumnKind.CATEGORICAL, cats))
            cols.append(rng.integers(0, k, n).astype(np.float64))
    values = np.column_stack(cols)
    return DataTable(tuple(schema), values, np.zeros_like(values, dtype=bool))


def test_acceptance_02_imputers_preserve_observed_and_close_categories(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    rates = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    n_checked = 0
    for i in range(200):
        full = _random_mixed_table(rng)
        r = float(rates[int(rng.integers(0, len(rates)))])
        mask_seed = int(rng.integers(0, 2**31))
        for attempt in range(64):
            masked, mask = apply_mcar(full, r, mask_seed + attempt)
            if not masked.missing.all(axis=0).any():
                break
        else:
            pytest.fail("could not draw a mask leaving every column partly observed")
        imp_seed = int(rng.integers(0, 2**31))
        outputs = [
            missforest_impute(
                masked,
                MissForestParams(forest=ForestParams(n_trees=3), max_iter=2,
                                 seed=imp_seed),
            )[0],
            mice_impute(masked, MiceParams(n_iter=2)),
        ]
        observed = ~masked.missing
        for out in outputs:
            assert out.is_complete(), f"table {i}: output still has holes"
            assert np.array_equal(out.values[observed], masked.values[observed]), \
                f"table {i}: an observed cell changed"
            for j, col in enumerate(masked.schema):
                if col.kind is not ColumnKind.CATEGORICAL:
                    continue
                seen = set(masked.values[observed[:, j], j].tolist())
                filled = set(out.values[masked.missing[:, j], j].tolist())
                assert filled <= seen, \
                    f"table {i} col {j}: imputed a category never observed"
            n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _verdict(capsys, 2, ok,
             f"200 mixed tables x 2 imputers ({n_checked} outputs): complete, "
             f"observed cells bit-exact, categories closed, {elapsed:.1f}s < 120s")


def test_acceptance_03_complete_data_identity_and_pure_transduction(capsys):
    t0 = time.perf_counter()
    iris, label = resolve_dataset("builtin:iris")
    x, y = split_label(iris, label)
    mf = MissForestParams(forest=ForestParams(n_trees=30), max_iter=10, seed=SEED)

    out_mf, trace = missforest_impute(x, mf)
    assert tables_equal(out_mf, x)
    out_mice = mice_impute(x, MiceParams())
    assert tables_equal(out_mice, x)
    out_di = di_impute(x, mf)
    assert tables_equal(out_di, x)
    out_iul, y_iul = iul_impute(x, y, mf)
    assert tables_equal(out_iul, x)
    assert labels_equal(y_iul, y)

    # zero-rate label imputation: only the hidden test labels get filled
    (x_tr, y_tr), (x_te, _) = train_test_split(x, y, 0.6, SEED + 3)
    res = cbmi_predict(x_tr, y_tr, x_te, mf)
    assert labels_equal(res.y_train_imputed, y_tr)
    stacked_vals = np.vstack([x_tr.values, x_te.values])
    assert np.array_equal(res.completed.values[:, :-1], stacked_vals)
    assert not res.completed.missing.any()
    assert res.y_pred.is_complete() and res.y_pred.n == x_te.n_rows
    assert set(res.y_pred.categories) == set(y.categories)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _verdict(capsys, 3, ok,
             f"4 imputation paths return complete input bit-exact; zero-rate label "
             f"imputation fills only hidden labels ({res.y_pred.n} test rows), "
             f"{elapsed:.2f}s < 10s")


def test_acceptance_04_label_stacking_beats_label_free_imputation(capsys):
    cfg = ExperimentConfig(
        dataset="builtin:iris",
        label="species",
        scenario=Scenario.TEST_MISSING,
        rates=(0.8,),
        repetitions=10,
        methods=("iul-vs-di-missforest",),
        seed=SEED,
        forest=ForestParams(),
        missforest_max_iter=10,
    )
    report = run_experiment(cfg, threads=8)
    iul = _mean(report, "iul-missforest", 0.8, "masked_mse")
    di = _mean(report, "di-missforest", 0.8, "masked_mse")
    ok = (iul < di) and (0.01 <= iul <= 0.06) and (0.05 <= di <= 0.12)
    _verdict(capsys, 4, ok,
             f"masked error with labels {iul:.4f} in [0.01,0.06], "
             f"without {di:.4f} in [0.05,0.12], with < without")


def test_acceptance_05_transductive_accuracy_bands(capsys):
    cfg = ExperimentConfig(
        dataset="builtin:iris",
        label="species",
        scenario=Scenario.TEST_MISSING,
        rates=(0.2, 0.6),
        repetitions=10,
        methods=("cbmi", "iclf-missforest"),
        seed=SEED,
        forest=ForestParams(),
        missforest_max_iter=10,
    )
    report = run_experiment(cfg, threads=8)
    cb_low = _mean(report, "cbmi", 0.2, "accuracy")
    cb_high = _mean(report, "cbmi", 0.6, "accuracy")
    ic_high = _mean(report, "iclf-missforest", 0.6, "accuracy")
    ok = (0.87 <= cb_low <= 0.97) and (0.70 <= cb_high <= 0.83) \
        and (cb_high >= ic_high - 0.03)
    _verdict(capsys, 5, ok,
             f"label-imputation accuracy {cb_low:.4f} in [0.87,0.97] at rate 0.2, "
             f"{cb_high:.4f} in [0.70,0.83] at rate 0.6, "
             f">= impute-then-classify {ic_high:.4f} - 0.03")


def test_acceptance_06_native_missing_forest_on_clean_test(capsys):
    cfg = ExperimentConfig(
        dataset="builtin:iris",
        label="species",
        scenario=Scenario.TEST_OBSERVED,
        rates=(0.8,),
        repetitions=10,
        methods=("cbmi", "rf-missing"),
        seed=SEED,
        forest=ForestParams(),
        missforest_max_iter=10,
    )
    report = run_experiment(cfg, threads=8)
    cb = _mean(report, "cbmi", 0.8, "accuracy")
    rf = _mean(report, "rf-missing", 0.8, "accuracy")
    ok = (rf >= cb - 0.02) and (rf >= 0.88)
    _verdict(capsys, 6, ok,
             f"missing-aware forest {rf:.4f} >= label-imputation {cb:.4f} - 0.02 "
             f"and >= 0.88 on fully observed test rows")


def test_acceptance_07_mcar_mask_cardinality_exact(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 7)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        p = int(rng.integers(1, 12))
        r = float(rng.integers(0, 90)) / 100.0
        schema = tuple(ColumnSchema(f"c{j}", ColumnKind.CONTINUOUS) for j in range(p))
        vals = rng.normal(0.0, 1.0, (n, p))
        table = DataTable(schema, vals, np.zeros_like(vals, dtype=bool))
        masked, mask = apply_mcar(table, r, int(rng.integers(0, 2**31)))
        want = round_half_away(r * n * p)
        assert mask.sum() == want, f"(n={n}, p={p}, r={r}): {mask.sum()} != {want}"
        assert int(masked.missing.sum()) == want
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _verdict(capsys, 7, ok,
             f"100 random (n, p, rate) draws, mask size == round(rate*n*p) "
             f"every time, {elapsed:.3f}s < 1s")


def test_acceptance_08_bundled_config_runs_byte_identical(capsys, tmp_path):
    from importlib import resources

    ref = resources.files("labimpute") / "_assets" / "iris_experiment.json"
    with resources.as_file(ref) as cfg_path:
        digests = []
        for i, threads in enumerate((1, 8, 1, 8)):
            out = tmp_path / f"run{i}_t{threads}"
            out.mkdir()
            code = cli_main([
                "experiment", "--config", str(cfg_path),
                "--threads", str(threads), "--out-dir", str(out),
            ])
            assert code == 0
            data = (out / "runs.csv").read_bytes()
            digests.append(hashlib.sha256(data).hexdigest())
    ok = len(set(digests)) == 1
    _verdict(capsys, 8, ok,
             f"4 runs (threads 1/8/1/8) -> identical runs.csv, "
             f"sha256 {digests[0][:16]}…")
