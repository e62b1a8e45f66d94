import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labimpute.data import (
    ColumnKind,
    ColumnSchema,
    DataTable,
    LabelVector,
    accuracy,
    apply_mcar,
    concat_rows,
    load_csv,
    masked_mse,
    round_half_away,
    save_csv,
    scale_minmax,
    schema_from_json,
    schema_to_json,
    split_label,
    tables_equal,
    train_test_split,
)
from labimpute.errors import DataError, SchemaError
from labimpute.forest import ForestModel, ForestParams, fit_forest
from labimpute.strategies import stack_labels


def cont(name):
    return ColumnSchema(name, ColumnKind.CONTINUOUS)


def cat(name, labels):
    return ColumnSchema(name, ColumnKind.CATEGORICAL, tuple(labels))


def make_table(values, missing=None, schema=None):
    values = np.asarray(values, dtype=np.float64)
    if schema is None:
        schema = tuple(cont(f"x{j}") for j in range(values.shape[1]))
    if missing is None:
        missing = np.zeros(values.shape, dtype=bool)
    return DataTable(schema, values, np.asarray(missing, dtype=bool))


def random_table(rng, n, p, cat_frac=0.4, max_k=5):
    """Random mixed-type complete table; categorical K between 2 and max_k."""
    schema = []
    cols = []
    for j in range(p):
        if rng.random() < cat_frac:
            k = int(rng.integers(2, max_k + 1))
            schema.append(cat(f"c{j}", [f"v{i}" for i in range(k)]))
            cols.append(rng.integers(0, k, n).astype(float))
        else:
            schema.append(cont(f"x{j}"))
            cols.append(rng.normal(0.0, 2.0, n))
    return DataTable(tuple(schema), np.column_stack(cols), np.zeros((n, p), dtype=bool))


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def test_round_half_away():
    assert round_half_away(2.5) == 3
    assert round_half_away(3.5) == 4
    assert round_half_away(2.4) == 2
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.0) == 0
    # the two count computations exercised by the fixed examples
    assert round_half_away(0.6 * 150) == 90
    assert round_half_away(0.8 * 90 * 4) == 288


# ---------------------------------------------------------------------------
# table construction invariants
# ---------------------------------------------------------------------------

def test_table_flags_are_authoritative():
    t = make_table([[1.0, 2.0], [3.0, 4.0]], missing=[[False, True], [False, False]])
    assert np.isnan(t.values[0, 1])
    assert t.missing[0, 1]
    assert t.missing_count_by_column().tolist() == [0, 1]
    assert not t.is_complete()


def test_table_rejects_nonfinite_present_cells():
    with pytest.raises(DataError):
        make_table([[np.inf, 1.0]])


def test_table_rejects_category_index_out_of_range():
    schema = (cat("c", ["a", "b"]),)
    with pytest.raises(SchemaError):
        DataTable(schema, np.array([[2.0]]), np.array([[False]]))
    with pytest.raises(SchemaError):
        DataTable(schema, np.array([[0.5]]), np.array([[False]]))


_OWNED_SCHEMA = (cont("x"), cat("c", ["a", "b"]), cont("z"))


def _owned_table(values, missing):
    return DataTable(_OWNED_SCHEMA, values, missing)


def _owned_label(values, missing):
    return LabelVector(ColumnKind.CATEGORICAL, values[:, 1], missing[:, 1], ("a", "b"))


# Each case builds a result from writable (values, missing, row index) arrays.
_OWNED_CASES = {
    "DataTable": lambda v, m, idx: _owned_table(v, m),
    "LabelVector": lambda v, m, idx: _owned_label(v, m),
    "take_rows": lambda v, m, idx: _owned_table(v, m).take_rows(idx),
    "drop_column": lambda v, m, idx: _owned_table(v, m).drop_column(1),
    "concat_rows": lambda v, m, idx: concat_rows(_owned_table(v, m), _owned_table(v, m)),
    "apply_mcar": lambda v, m, idx: apply_mcar(_owned_table(v, m), 0.3, 1),
    "scale_minmax": lambda v, m, idx: scale_minmax(_owned_table(v, m), [_owned_table(v, m)]),
    "stack_labels": lambda v, m, idx: stack_labels(_owned_table(v, m), _owned_label(v, m)),
    "split_label": lambda v, m, idx: split_label(_owned_table(v, m), "c"),
    "LabelVector.take": lambda v, m, idx: _owned_label(v, m).take(idx),
    "fit_forest": lambda v, m, idx: fit_forest(_owned_table(v, m), _owned_label(v, m),
                                               ForestParams(n_trees=2, min_leaf=1), 1),
}


def _held_arrays(result):
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, (DataTable, LabelVector)):
        return [result.values, result.missing]
    if isinstance(result, ForestModel):
        return [a for a in vars(result).values() if isinstance(a, np.ndarray)]
    return [a for part in result for a in _held_arrays(part)]


@pytest.mark.parametrize("make", _OWNED_CASES.values(), ids=_OWNED_CASES.keys())
def test_table_is_immutable(make):
    # every array a result holds is read-only and its own: writing afterwards
    # to the arrays the caller passed in leaves the result as it was
    values = np.array([[1.0, 0.0, 3.0], [2.0, 1.0, 5.0], [4.0, 1.0, 6.0]])
    missing = np.zeros(values.shape, dtype=bool)
    idx = np.array([2, 0])
    held = _held_arrays(make(values, missing, idx))
    assert not any(a.flags.writeable for a in held)
    before = [a.tobytes() for a in held]
    values[...], missing[...], idx[...] = 7.0, True, 1
    assert [a.tobytes() for a in held] == before


def test_schema_validation():
    with pytest.raises(SchemaError):
        ColumnSchema("c", ColumnKind.CATEGORICAL, ())
    with pytest.raises(SchemaError):
        ColumnSchema("c", ColumnKind.CATEGORICAL, ("a", "a"))
    with pytest.raises(SchemaError):
        ColumnSchema("x", ColumnKind.CONTINUOUS, ("a",))


def test_label_vector_class_range():
    with pytest.raises(SchemaError):
        LabelVector(ColumnKind.CATEGORICAL, np.array([0.0, 3.0]),
                    np.zeros(2, dtype=bool), ("a", "b"))
    y = LabelVector.from_ints([0, 1, 1], ["a", "b"])
    assert y.n_classes == 2
    assert y.as_ints().tolist() == [0, 1, 1]


def test_label_vector_rejects_duplicate_categories():
    # a label keeps the category rules of the column it becomes
    with pytest.raises(SchemaError, match="duplicate"):
        LabelVector.from_ints([0, 1], ["a", "a"])
    with pytest.raises(SchemaError, match="cannot list"):
        LabelVector(ColumnKind.CONTINUOUS, np.array([0.5]), np.zeros(1, dtype=bool), ("a",))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_label_vector_rejects_nonfinite_present_labels(bad):
    # checked before classes are named, so no category range is built from it
    for categories in ((), ("a", "b")):
        with pytest.raises(DataError, match="finite"):
            LabelVector.from_ints([0.0, bad], categories)


def _raises_without_allocating(make, match):
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=match):
            make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20   # 2**16 names alone would take several MB


def test_label_vector_rejects_a_huge_unnamed_class_id():
    _raises_without_allocating(lambda: LabelVector.from_ints([0, 10 ** 12]),
                               r"class id 1000000000000\.0 is too large")


def test_label_vector_rejects_a_float_max_scale_class_id():
    _raises_without_allocating(lambda: LabelVector.from_ints([1e300, 2]),
                               r"class id 1e\+300 is too large")


def test_label_vector_names_unnamed_classes_up_to_the_cap():
    y = LabelVector.from_ints([0, 2 ** 16 - 1])
    assert y.n_classes == 2 ** 16 and y.categories[-1] == "65535"
    with pytest.raises(DataError, match="up to 65535"):
        LabelVector.from_ints([2 ** 16])


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_load_csv_iris_asset():
    from importlib import resources

    path = resources.files("labimpute") / "_assets/iris.csv"
    t = load_csv(str(path))
    assert (t.n_rows, t.n_cols) == (150, 5)
    kinds = [c.kind for c in t.schema]
    assert kinds[:4] == [ColumnKind.CONTINUOUS] * 4
    assert kinds[4] is ColumnKind.CATEGORICAL
    assert t.schema[4].categories == ("setosa", "versicolor", "virginica")
    X, y = split_label(t, "species")
    assert X.n_cols == 4 and y.kind is ColumnKind.CATEGORICAL and y.n_classes == 3
    assert t.is_complete()


def test_load_csv_missing_tokens_and_inference(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,b,c\n1.5,x,?\n,y,3\n2e1,x,4\n")
    t = load_csv(f)
    assert t.schema[0].kind is ColumnKind.CONTINUOUS
    assert t.schema[1].kind is ColumnKind.CATEGORICAL
    assert t.schema[1].categories == ("x", "y")  # first-appearance order
    assert t.schema[2].kind is ColumnKind.CONTINUOUS
    assert t.missing[0, 2] and t.missing[1, 0]
    assert t.values[2, 0] == 20.0
    assert t.values[0, 1] == 0.0 and t.values[1, 1] == 1.0


def test_load_csv_nan_tokens_are_missing(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,b\n1,x\nnan,y\n2,NaN\n")
    t = load_csv(f)
    assert t.schema[0].kind is ColumnKind.CONTINUOUS
    assert t.missing[:, 0].tolist() == [False, True, False]
    assert t.values[2, 0] == 2.0
    assert t.schema[1].categories == ("x", "y") and t.missing[2, 1]


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity"])
def test_load_csv_rejects_infinite_values(tmp_path, token):
    f = tmp_path / "t.csv"
    f.write_text(f"a,b\n1,2\n3,{token}\n")
    with pytest.raises(DataError, match=r"row 1, column 'b'"):
        load_csv(f)
    with pytest.raises(DataError, match=r"row 1, column 'b'"):
        load_csv(f, schema=[cont("a"), cont("b")])


def test_load_csv_rejects_duplicate_header(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,b,a\n1,2,3\n")
    with pytest.raises(DataError, match="duplicate header names \\['a'\\]"):
        load_csv(f)


def test_load_csv_ragged_row_reports_index(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(f)


def test_load_csv_skips_blank_lines(tmp_path):
    f = tmp_path / "t.csv"
    f.write_bytes(b"a,b\r\n1,2\r\n\r\n")
    t = load_csv(f)
    assert (t.n_rows, t.n_cols) == (1, 2) and t.values.tolist() == [[1.0, 2.0]]
    # rows are counted after the skipped lines, so errors name table rows
    f.write_text("a,b\n\n1,2\n\n\n3,inf\n")
    with pytest.raises(DataError, match=r"row 1, column 'b'"):
        load_csv(f)
    f.write_text("a,b\n1,2\n\n3\n")
    with pytest.raises(DataError, match="row 1 has 1 fields"):
        load_csv(f)


def test_load_csv_blank_line_is_a_missing_cell_in_one_column(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("x\n1\n\n3\n")
    t = load_csv(f)
    assert t.n_rows == 3 and t.missing[:, 0].tolist() == [False, True, False]
    assert t.values[[0, 2], 0].tolist() == [1.0, 3.0]
    save_csv(t, tmp_path / "out.csv")
    assert tables_equal(load_csv(tmp_path / "out.csv", t.schema), t)
    f.write_text("x\n1\n\ninf\n")
    with pytest.raises(DataError, match=r"row 2, column 'x'"):
        load_csv(f)


def test_load_csv_header_only(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,b\n")
    t = load_csv(f)
    assert t.n_rows == 0 and t.n_cols == 2


def test_load_csv_unknown_category_under_fixed_schema(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("c\nz\n")
    with pytest.raises(SchemaError, match="unknown category"):
        load_csv(f, schema=[cat("c", ["a", "b"])])


def test_load_csv_schema_name_mismatch(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a\n1\n")
    with pytest.raises(SchemaError):
        load_csv(f, schema=[cont("b")])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    t = random_table(rng, 23, 5)
    masked, _ = apply_mcar(t, 0.3, seed=11)
    out = tmp_path / "round.csv"
    save_csv(masked, out)
    back = load_csv(out, schema=masked.schema)
    assert tables_equal(masked, back)


def test_save_csv_reads_back_and_refuses_missing_token_labels(tmp_path):
    schema = (cont("x"), cat("c", ["u", "v"]), cont("z"))
    t = DataTable(schema, np.array([[0.5, 0.0, 1.0], [np.nan, 1.0, -3.25],
                                    [-2.0, np.nan, np.nan]]),
                  np.array([[False, False, False], [True, False, False],
                            [False, True, True]]))
    out = tmp_path / "holes.csv"
    save_csv(t, out)
    assert tables_equal(load_csv(out, schema=schema), t)
    assert tables_equal(load_csv(out), t)  # inference recovers every kind
    bad = DataTable((cont("x"), cat("grade", ["A", "NA"])),
                    np.array([[1.0, 0.0], [2.0, 1.0]]), np.zeros((2, 2), dtype=bool))
    with pytest.raises(DataError, match="'grade'.*'NA'"):
        save_csv(bad, tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()


def test_schema_sidecar_round_trip(tmp_path):
    schema = (cont("x"), cat("c", ["u", "v", "w"]))
    path = tmp_path / "schema.json"
    schema_to_json(schema, path)
    assert schema_from_json(path) == schema


@pytest.mark.parametrize("text, match", [
    ('[{"name": "x", "kind": "continuous"}, {"name": "a"}]', r"entry 1 \{'name': 'a'\}"),
    ('{"name": "a", "kind": "continuous"}', "JSON list"),
    ('[{"name": "a", "kind": "ordinal"}]', "entry 0 .*'ordinal'"),
    ("name,kind\n", "not valid JSON"),
    ('[{"name": 5, "kind": "continuous"}]', "entry 0 .*string name"),
    ('[{"name": "c", "kind": "categorical", "categories": "ab"}]', "entry 0 .*list"),
], ids=["no-kind", "not-a-list", "unknown-kind", "not-json", "int-name",
        "string-categories"])
def test_schema_from_json_malformed_is_schema_error(tmp_path, text, match):
    path = tmp_path / "schema.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=match):
        schema_from_json(path)


def test_csv_and_schema_files_are_utf8(tmp_path):
    # written and read as UTF-8 whatever the locale; other bytes are a
    # DataError that names the file, not a UnicodeDecodeError
    schema = (cont("x"), cat("città", ["é", "ß"]))
    table = make_table([[1.5, 0.0], [2.0, 1.0]], schema=schema)
    save_csv(table, tmp_path / "t.csv")
    schema_to_json(schema, tmp_path / "s.json")
    data = (tmp_path / "t.csv").read_bytes()
    assert "città".encode("utf-8") in data and "é".encode("utf-8") in data
    assert tables_equal(load_csv(tmp_path / "t.csv", schema_from_json(tmp_path / "s.json")),
                        table)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,b\n1,\xff\n")
    with pytest.raises(DataError, match="bad.csv: not UTF-8"):
        load_csv(bad)
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_bytes(b'[{"name": "\xff", "kind": "continuous"}]')
    with pytest.raises(SchemaError, match="bad.json: not valid JSON"):
        schema_from_json(bad_schema)


def test_csv_field_over_the_reader_limit_is_a_data_error(tmp_path):
    # the csv module refuses fields over csv.field_size_limit() (128 KiB)
    # with its own error; load_csv names the file and the line instead
    big = tmp_path / "big.csv"
    big.write_text("a,b\n1,2\n" + "x" * 200_000 + ",3\n", encoding="utf-8")
    with pytest.raises(DataError, match="big.csv: line 3: field larger than field limit"):
        load_csv(big)


_MISSING = st.sampled_from(["", "NA", "?", "nan", "NaN"])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers().map(str),
    st.sampled_from(["inf", "-inf", "1e400", "1e-400", "-0", " 3 ", "1_0", "0x1", "+.5", "٣"]))
_LABEL = st.one_of(st.sampled_from(["a", "b", "a b", "1", "True", ",", '"', "\n", "\r", "\x00",
                                    "é", "\ufeff", " ", "NA ", "\x85"]), st.text(max_size=4))


@st.composite
def _csv_bytes(draw):
    """Mostly rectangular CSV text of numeric, label and missing cells, raw
    or quoted, now and then with a ragged row; or bytes that may not decode."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=60))
    p, n = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    header = [draw(_LABEL) + (f"{j}" if draw(st.integers(0, 3)) else "") for j in range(p)]
    kinds = [draw(st.sampled_from([_NUMBER, _LABEL])) for _ in range(p)]
    rows = [header] + [[draw(st.one_of(_MISSING, kinds[j], kinds[j])) for j in range(p)]
                       for _ in range(n)]
    if n and draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(1, n))].append(draw(_NUMBER))
    quote = (lambda c: '"' + c.replace('"', '""') + '"') if draw(st.booleans()) else str
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(",".join(map(quote, row)) for row in rows) + draw(st.sampled_from(["", eol]))
    return text.encode("utf-8", "surrogatepass")   # a lone surrogate is not UTF-8


@settings(max_examples=500, deadline=None, derandomize=True)
@given(raw=_csv_bytes())
def test_load_csv_fuzz_round_trips_or_raises_a_data_error(raw):
    # every input loads or is a DataError/SchemaError, and what loads comes
    # back the same through save_csv and load_csv with the loaded schema
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        src.write_bytes(raw)
        try:
            table = load_csv(src)
        except (DataError, SchemaError):
            return
        save_csv(table, out)
        assert tables_equal(load_csv(out, table.schema), table)


_SCALAR = st.none() | st.booleans() | st.integers() | st.floats()
_JSON = st.recursive(_SCALAR | _LABEL, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=2), inner, max_size=3), max_leaves=4)


@st.composite
def _schema_bytes(draw):
    """A list of mostly valid column entries, now and then with one key
    dropped or set to arbitrary JSON; or arbitrary JSON, deep nesting or bytes."""
    pick = draw(st.integers(0, 9))
    if pick == 0:
        return draw(st.binary(max_size=40))
    if pick == 1:
        depth = draw(st.sampled_from([3, 500, 5000]))
        return ("[" * depth + "]" * draw(st.sampled_from([0, depth]))).encode()
    if pick == 2:
        return json.dumps(draw(_JSON)).encode()
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(ColumnKind))
        entry = {"name": draw(_LABEL), "kind": kind.value,
                 "categories": draw(st.lists(_LABEL, min_size=1, max_size=3, unique=True))
                 if kind is ColumnKind.CATEGORICAL else []}
        if draw(st.integers(0, 3)) == 0:
            key = draw(st.sampled_from(sorted(entry)))
            if draw(st.booleans()):
                entry[key] = draw(st.one_of(_SCALAR, _JSON))
            else:
                del entry[key]
        entries.append(entry)
    return json.dumps(entries).encode()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(raw=_schema_bytes())
def test_schema_json_fuzz_round_trips_or_raises_a_data_error(raw):
    # every input is a schema or a DataError/SchemaError, and a schema that
    # loads comes back the same through schema_to_json and schema_from_json
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
        src.write_bytes(raw)
        try:
            schema = schema_from_json(src)
        except DataError:
            return
        assert all(isinstance(col, ColumnSchema) for col in schema)
        schema_to_json(schema, out)
        assert schema_from_json(out) == schema


def test_schema_json_too_deeply_nested_is_a_schema_error(tmp_path):
    # the JSON decoder gives up on deep nesting with a RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(SchemaError, match="deep.json: not valid JSON"):
        schema_from_json(deep)


def test_schema_json_category_rule_names_the_file_and_entry(tmp_path):
    f = tmp_path / "s.json"
    f.write_text('[{"name": "a", "kind": "continuous"}, '
                 '{"name": "b", "kind": "categorical", "categories": ["x", "x"]}]')
    with pytest.raises(SchemaError, match="s.json: column entry 1: duplicate category"):
        schema_from_json(f)


def test_split_label_equals_the_checked_label():
    # split_label skips the label checks; its result must equal the label
    # the checked constructor builds from the same column
    schema = (cont("x"), cat("c", ["u", "v", "w"]), cont("r"))
    missing = np.array([[False, True, False], [False, False, True], [True, False, False]])
    table = make_table([[1.0, 0.0, 0.5], [2.0, 2.0, 0.0], [0.0, 1.0, -1.5]], missing, schema)
    for j, kind in ((1, ColumnKind.CATEGORICAL), (2, ColumnKind.CONTINUOUS)):
        X, y = split_label(table, j)
        checked = LabelVector(kind, table.values[:, j], table.missing[:, j],
                              schema[j].categories, schema[j].name)
        assert y.kind is kind and y.name == schema[j].name and y.categories == checked.categories
        assert np.array_equal(y.values, checked.values, equal_nan=True)
        assert np.array_equal(y.missing, checked.missing)
        assert not y.values.flags.writeable and not y.missing.flags.writeable
        assert y.values.flags.c_contiguous and X.n_cols == 2


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_sizes_round_half_away():
    rng = np.random.default_rng(0)
    t = random_table(rng, 5, 2, cat_frac=0.0)
    y = LabelVector.from_ints([0, 1, 0, 1, 0], ["a", "b"])
    (tr, ytr), (te, yte) = train_test_split(t, y, 0.6, seed=3)
    assert tr.n_rows == 3 and te.n_rows == 2  # round(3.0) = 3
    assert ytr.n == 3 and yte.n == 2


def test_split_partitions_rows():
    rng = np.random.default_rng(1)
    t = random_table(rng, 40, 3, cat_frac=0.0)
    # tag each row by a unique value so the partition can be audited
    y = LabelVector(ColumnKind.CONTINUOUS, np.arange(40.0), np.zeros(40, dtype=bool))
    (tr, ytr), (te, yte) = train_test_split(t, y, 0.6, seed=9)
    ids = np.concatenate([ytr.values, yte.values])
    assert sorted(ids.tolist()) == list(range(40))
    # rows travel with their labels
    recon = {int(v): row for v, row in zip(ytr.values, tr.values)}
    for v, row in zip(yte.values, te.values):
        recon[int(v)] = row
    for i in range(40):
        assert np.array_equal(recon[i], t.values[i])


def test_split_is_deterministic():
    rng = np.random.default_rng(2)
    t = random_table(rng, 30, 2)
    y = LabelVector.from_ints([i % 2 for i in range(30)], ["a", "b"])
    a = train_test_split(t, y, 0.5, seed=42)
    b = train_test_split(t, y, 0.5, seed=42)
    assert tables_equal(a[0][0], b[0][0]) and tables_equal(a[1][0], b[1][0])


def test_split_rejects_tiny_or_bad_ratio():
    t = make_table([[1.0]])
    y = LabelVector.from_ints([0], ["a"])
    with pytest.raises(DataError):
        train_test_split(t, y, 0.5, seed=0)
    t2 = make_table([[1.0], [2.0]])
    y2 = LabelVector.from_ints([0, 1], ["a", "b"])
    with pytest.raises(DataError):
        train_test_split(t2, y2, 1.0, seed=0)
    with pytest.raises(DataError, match="'ratio'"):
        train_test_split(t2, y2, "0.5", seed=0)


# ---------------------------------------------------------------------------
# MCAR
# ---------------------------------------------------------------------------

def test_mcar_exact_count_and_determinism():
    rng = np.random.default_rng(3)
    t = random_table(rng, 90, 4)
    masked, mask = apply_mcar(t, 0.8, seed=17)
    assert mask.dtype == bool and np.array_equal(mask, masked.missing)
    assert mask.sum() == 288  # round(0.8 * 360)
    again, mask2 = apply_mcar(t, 0.8, seed=17)
    assert np.array_equal(mask, mask2)
    # observed cells untouched
    assert np.array_equal(masked.values[~mask], t.values[~mask])


def test_mcar_rate_zero_is_identity():
    rng = np.random.default_rng(4)
    t = random_table(rng, 10, 3)
    masked, mask = apply_mcar(t, 0.0, seed=1)
    assert mask.sum() == 0
    assert mask.dtype == bool and np.array_equal(mask, masked.missing)
    assert tables_equal(masked, t)


def test_mcar_rejects_bad_rate_and_premasked():
    rng = np.random.default_rng(5)
    t = random_table(rng, 6, 2)
    with pytest.raises(DataError):
        apply_mcar(t, 1.0, seed=0)
    with pytest.raises(DataError):
        apply_mcar(t, -0.1, seed=0)
    with pytest.raises(DataError, match="'rate'"):
        apply_mcar(t, "0.3", seed=0)
    masked, _ = apply_mcar(t, 0.25, seed=0)
    with pytest.raises(DataError):
        apply_mcar(masked, 0.1, seed=0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), p=st.integers(1, 8),
       rate=st.floats(0.0, 0.95), seed=st.integers(0, 10_000))
def test_mcar_cardinality_property(n, p, rate, seed):
    rng = np.random.default_rng(seed + 1)
    t = random_table(rng, n, p, cat_frac=0.0)
    expect = round_half_away(rate * n * p)
    if expect >= n * p:  # rate < 1 but rounding could hit every cell
        expect = min(expect, n * p)
        masked, mask = apply_mcar(t, rate, seed)
        assert mask.sum() == expect
        return
    masked, mask = apply_mcar(t, rate, seed)
    assert mask.sum() == expect
    assert masked.missing.sum() == expect


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def test_scale_fixed_points():
    t = make_table([[2.0], [6.0], [4.0]])
    [s] = scale_minmax(t, [t])
    assert s.values[:, 0].tolist() == [-1.0, 1.0, 0.0]


def test_scale_constant_column_maps_to_zero():
    t = make_table([[5.0], [5.0]])
    [s] = scale_minmax(t, [t])
    assert s.values[:, 0].tolist() == [0.0, 0.0]


def test_scale_leaves_categorical_and_missing_untouched():
    schema = (cont("x"), cat("c", ["a", "b"]))
    t = DataTable(schema, np.array([[0.0, 1.0], [10.0, 0.0]]),
                  np.array([[False, False], [True, False]]))
    [s] = scale_minmax(t, [t])
    assert s.values[0, 1] == 1.0 and s.values[1, 1] == 0.0
    assert s.missing[1, 0]
    # single observed cell in x: constant range, maps to 0
    assert s.values[0, 0] == 0.0


def test_scale_errors_on_fully_missing_continuous_column():
    t = make_table([[1.0], [2.0]], missing=[[True], [True]])
    with pytest.raises(DataError, match="x0"):
        scale_minmax(t, [t])


def test_scale_applies_train_range_to_test():
    train = make_table([[0.0], [10.0]])
    test = make_table([[5.0], [20.0]])
    [str_, ste] = scale_minmax(train, [train, test])
    assert str_.values[:, 0].tolist() == [-1.0, 1.0]
    assert ste.values[0, 0] == 0.0
    assert ste.values[1, 0] == 3.0  # out-of-range test values extrapolate


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_scale_matches_documented_map_property(seed):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(2, 30)), int(rng.integers(1, 6))
    t = random_table(rng, n, p)
    [s] = scale_minmax(t, [t])
    assert np.array_equal(s.missing, t.missing)
    for j, col in enumerate(t.schema):
        v = t.values[:, j]
        if col.kind is ColumnKind.CATEGORICAL:
            assert np.array_equal(s.values[:, j], v)
            continue
        lo, hi = v.min(), v.max()
        want = np.zeros(n) if hi == lo else 2.0 * (v - lo) / (hi - lo) - 1.0
        assert np.array_equal(s.values[:, j].view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_masked_mse_hand_value():
    # two masked cells with errors 0.1 and 0.3: (0.01 + 0.09) / 2 = 0.05
    orig = make_table([[1.0, 2.0], [3.0, 4.0]])
    imp = make_table([[1.1, 2.0], [3.0, 4.3]])
    mask = np.array([[True, False], [False, True]])
    r = masked_mse(imp, orig, mask)
    assert r.n_cells == 2
    assert abs(r.value - 0.05) < 1e-12
    # only a boolean array of the tables' shape is a mask: not 0/1 integers,
    # not (row, col) coordinates, not flags of another shape
    for bad in (mask.astype(int), np.argwhere(mask), mask[:1]):
        with pytest.raises(DataError, match="mask"):
            masked_mse(imp, orig, bad)


def test_masked_mse_skips_categorical_cells():
    schema = (cont("x"), cat("c", ["a", "b"]))
    orig = DataTable(schema, np.array([[1.0, 0.0]]), np.zeros((1, 2), dtype=bool))
    imp = DataTable(schema, np.array([[1.5, 1.0]]), np.zeros((1, 2), dtype=bool))
    mask = np.ones((1, 2), dtype=bool)
    r = masked_mse(imp, orig, mask)
    assert r.n_cells == 1
    assert abs(r.value - 0.25) < 1e-12


def test_masked_mse_empty_mask_flags_zero_cells():
    t = make_table([[1.0]])
    mask = np.zeros((1, 1), dtype=bool)
    r = masked_mse(t, t, mask)
    assert r.value == 0.0 and r.n_cells == 0


def test_accuracy_values_and_errors():
    a = LabelVector.from_ints([0, 1, 2, 1], ["x", "y", "z"])
    b = LabelVector.from_ints([0, 1, 1, 1], ["x", "y", "z"])
    assert accuracy(a, b) == 0.75
    short = LabelVector.from_ints([0], ["x", "y", "z"])
    with pytest.raises(DataError):
        accuracy(a, short)
    holey = LabelVector(ColumnKind.CATEGORICAL, np.array([0.0, np.nan, 2.0, 1.0]),
                        np.array([False, True, False, False]), ("x", "y", "z"))
    with pytest.raises(DataError):
        accuracy(a, holey)


# ---------------------------------------------------------------------------
# assorted helpers
# ---------------------------------------------------------------------------

def test_concat_rows_requires_same_schema():
    a = make_table([[1.0]])
    b = make_table([[2.0]])
    c = concat_rows(a, b)
    assert c.n_rows == 2
    other = DataTable((cat("c", ["u"]),), np.array([[0.0]]), np.array([[False]]))
    with pytest.raises(SchemaError):
        concat_rows(a, other)
