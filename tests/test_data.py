"""Dataset construction, ingestion, preprocessing, folds, synthesis and
the file writers."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsev.data import (
    ColumnSchema,
    DataError,
    Dataset,
    PortfolioSpec,
    bin_codes,
    generate_synthetic_portfolio,
    load_claims_csv,
    load_csv,
    load_schema,
    normalize_continuous,
    one_hot,
    read_json,
    read_rows,
    scaling_stats,
    severity_view,
    stratified_folds,
    write_claims_csv,
    write_csv,
    write_json,
    write_rows,
    write_schema,
)

from conftest import small_portfolio, toy_dataset


def test_schema_requires_single_response():
    with pytest.raises(DataError):
        Dataset((ColumnSchema("x", "continuous"),), {"x": np.zeros(2)})


def test_schema_rejects_duplicate_levels():
    with pytest.raises(DataError):
        ColumnSchema("r", "categorical", ("a", "a"))


def test_load_csv_roundtrip(tmp_path):
    ds = toy_dataset()
    path = tmp_path / "toy.csv"
    write_csv(ds, path)
    loaded = load_csv(path, list(ds.schema))
    assert loaded.n == 5
    for name in ds.columns:
        np.testing.assert_allclose(loaded.columns[name], ds.columns[name])


def test_load_csv_reports_bad_exposure_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("age,exposure,claims\n20,1.0,0\n30,0.0,1\n")
    schema = [
        ColumnSchema("age", "continuous"),
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    ]
    with pytest.raises(DataError, match="row 2"):
        load_csv(path, schema)


@pytest.mark.parametrize("column, cell", [
    ("age", "nan"), ("age", "inf"), ("exposure", "nan"), ("exposure", "inf"),
    ("claims", "-inf"), ("claims", "NaN"),
])
def test_load_csv_rejects_non_finite_values(tmp_path, column, cell):
    row = {"age": "30", "exposure": "1.0", "claims": "1"}
    row[column] = cell
    path = tmp_path / "bad.csv"
    path.write_text("age,exposure,claims\n20,1.0,0\n" + ",".join(row.values()) + "\n")
    schema = [
        ColumnSchema("age", "continuous"),
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    ]
    with pytest.raises(DataError, match=rf"^non-finite value {float(cell)} for '{column}' in row 2$"):
        load_csv(path, schema)


def test_load_csv_rejects_a_negative_response(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("age,exposure,claims\n20,1.0,0\n30,1.0,-0.0\n40,1.0,-1\n50,1.0,-2\n")
    schema = [
        ColumnSchema("age", "continuous"),
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    ]
    with pytest.raises(DataError, match=r"^negative response -1.0 for 'claims' in row 3$"):
        load_csv(path, schema)


def test_load_csv_rejects_unknown_level(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("region,exposure,claims\nZ,1.0,0\n")
    schema = [
        ColumnSchema("region", "categorical", ("a", "b")),
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    ]
    with pytest.raises(DataError):
        load_csv(path, schema)


def test_schema_file_parsing(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("# comment\nage:continuous\nregion:categorical:a,b\n"
                    "exposure:exposure\nclaims:response\n")
    schema = load_schema(path)
    assert [c.name for c in schema] == ["age", "region", "exposure", "claims"]
    assert schema[1].levels == ("a", "b")
    path.write_text("claims:response\nn:claim_count\n")
    with pytest.raises(DataError, match="unknown column kind 'claim_count'"):
        load_schema(path)


def test_write_schema_round_trip(tmp_path):
    path = tmp_path / "schema.txt"
    for schema in (toy_dataset().schema, small_portfolio(n=10).dataset.schema):
        write_schema(schema, path)
        assert load_schema(path) == list(schema)
    assert path.read_bytes() == (b"age:continuous\nregion:categorical:north,south,east\n"
                                 b"exposure:exposure\nclaim_count:response\n")


def test_write_rows_format(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, ["a", "b", "c"], [("x", 1, 0.1), ("y", np.int64(2), np.float64(1e-5))])
    assert path.read_bytes() == b"a,b,c\nx,1,0.1\ny,2,1e-05\n"
    for bad in ("x,y", 'x"y', "x\ny", "x\ry"):
        with pytest.raises(DataError, match="comma, a quote or a line break"):
            write_rows(path, ["a", "b"], [(bad, 1.0)])
    with pytest.raises(TypeError):
        write_rows(path, ["a", "b"], [("x", 1.0), ("y",)])


def test_write_json_layout(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"a": [1, 0.1]})
    assert path.read_bytes() == b'{"a": [1, 0.1]}'
    write_json(path, {"a": [1, 0.1]}, indent=2)
    assert path.read_bytes() == b'{\n  "a": [\n    1,\n    0.1\n  ]\n}'


def test_read_rows_inverts_write_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, ["a", "b"], [("x", 0.1), ("y", 2)])
    assert read_rows(path) == (["a", "b"], [["x", "0.1"], ["y", "2"]])
    path.write_text('a,b\r\n"x,1",2\r\n\r\n"y ""z""",3\r\n', encoding="utf-8")
    assert read_rows(path) == (["a", "b"], [["x,1", "2"], ['y "z"', "3"]])
    path.write_text("")
    assert read_rows(path) == ([], [])
    path.write_text("a,b\n1,2\n\n3,4,5\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 4 has 3 cells, the header 2$"):
        read_rows(path)


def test_read_json_raises_the_given_error(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"a": [1, 0.1]})
    assert read_json(path) == {"a": [1, 0.1]}
    path.write_text("{a: 1}")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} is not JSON: "):
        read_json(path)
    with pytest.raises(KeyError):
        read_json(path, KeyError)


def test_only_data_reads_and_writes_csv_and_json():
    """Every CSV and JSON file is read and written in `freqsev.data`: no
    other module names csv.reader, csv.DictReader, csv.writer, json.load(s)
    or json.dump(s)."""
    src = Path(__file__).resolve().parents[1] / "src" / "freqsev"
    formats = {("csv", "reader"), ("csv", "DictReader"), ("csv", "writer"),
               ("json", "load"), ("json", "loads"), ("json", "dump"), ("json", "dumps")}
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "data.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used = {(node.value.id, node.attr)}
            elif isinstance(node, ast.ImportFrom):
                used = {(node.module, alias.name) for alias in node.names}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {'.'.join(u)}" for u in used & formats]
    assert offenders == []


def test_normalization_hand_example():
    schema = (ColumnSchema("x", "continuous"), ColumnSchema("y", "response"))
    ds = Dataset(schema, {"x": np.array([1.0, 2.0, 3.0]), "y": np.zeros(3)})
    stats = scaling_stats(ds)
    assert stats.means["x"] == 2.0
    assert stats.stds["x"] == 1.0  # sample (n-1) denominator
    out = normalize_continuous(ds, stats)
    np.testing.assert_allclose(out.columns["x"], [-1.0, 0.0, 1.0])


def test_normalization_invertible(portfolio):
    ds = portfolio.dataset
    stats = scaling_stats(ds)
    out = normalize_continuous(ds, stats)
    back = out.columns["age"] * stats.stds["age"] + stats.means["age"]
    np.testing.assert_allclose(back, ds.columns["age"], rtol=1e-12)


def test_scaling_stats_ignore_test_fold(portfolio):
    ds = portfolio.dataset
    train = np.arange(ds.n // 2)
    stats = scaling_stats(ds, train)
    poisoned = ds.with_column(
        "age", np.concatenate([ds.columns["age"][train], np.full(ds.n - len(train), 1e9)])
    )
    stats_poisoned = scaling_stats(poisoned, train)
    assert stats.means == stats_poisoned.means
    assert stats.stds == stats_poisoned.stds


def test_constant_column_rejected():
    schema = (ColumnSchema("x", "continuous"), ColumnSchema("y", "response"))
    ds = Dataset(schema, {"x": np.ones(4), "y": np.zeros(4)})
    with pytest.raises(DataError):
        scaling_stats(ds)


def test_one_hot_definition():
    schema = (
        ColumnSchema("a", "categorical", ("x", "y")),
        ColumnSchema("b", "categorical", ("p", "q", "r")),
        ColumnSchema("c", "response"),
    )
    ds = Dataset(
        schema,
        {"a": np.array([0], dtype=np.int64), "b": np.array([2], dtype=np.int64),
         "c": np.zeros(1)},
    )
    m, blocks = one_hot(ds)
    np.testing.assert_array_equal(m[0], [1, 0, 0, 0, 1])
    assert blocks == [("a", 2), ("b", 3)]


@pytest.mark.parametrize("code", [3, 7, -1])
def test_a_level_code_outside_the_schema_is_a_data_error(toy, code):
    """A frame never holds a level code its schema has no level for, so
    `one_hot` never sees one; the error names the column and first row."""
    codes = np.array([0, 1, code, code, 0])
    message = rf"level code {code} of 'region' in row 2 is outside 0\.\.2"
    with pytest.raises(DataError, match=message):
        toy.with_column("region", codes)
    with pytest.raises(DataError, match=message):
        one_hot(Dataset(toy.schema, dict(toy.columns, region=codes)))


def test_one_hot_roundtrip(portfolio):
    ds = portfolio.dataset
    m, blocks = one_hot(ds)
    offset = 0
    for _, width in blocks:
        np.testing.assert_array_equal(m[:, offset : offset + width].sum(axis=1), 1.0)
        offset += width
    region = [name for name, _ in blocks].index("region")
    start = sum(width for _, width in blocks[:region])
    decoded = np.argmax(m[:, start : start + blocks[region][1]], axis=1)
    np.testing.assert_array_equal(decoded, ds.columns["region"])


def test_severity_view_mean_and_weight(toy):
    claims = {1: [100.0, 300.0], 3: [50.0]}
    sev = severity_view(toy, claims)
    assert sev.n == 2
    np.testing.assert_allclose(sev.response, [200.0, 50.0])
    np.testing.assert_array_equal(sev.weights, [2.0, 1.0])
    assert sev.exposure is None


def test_severity_view_drops_nonpositive(toy):
    with pytest.warns(UserWarning):
        sev = severity_view(toy, {1: [-5.0], 3: [10.0]})
    assert sev.n == 1


def test_stratified_allocation_exact():
    # 600 rows, 100 claimants: each subset gets 100 rows and 16-17 claimants
    rng = np.random.default_rng(5)
    counts = np.zeros(600)
    counts[rng.choice(600, 100, replace=False)] = 1.0
    schema = (ColumnSchema("exposure", "exposure"), ColumnSchema("claims", "response"))
    ds = Dataset(schema, {"exposure": np.ones(600), "claims": counts})
    plan = stratified_folds(ds, seed=3)
    for fold in range(6):
        rows = plan.test_rows(fold)
        assert len(rows) == 100
        assert counts[rows].sum() in (16, 17)


def test_folds_partition_and_determinism(portfolio):
    ds = portfolio.dataset
    plan_a = stratified_folds(ds, seed=7)
    plan_b = stratified_folds(ds, seed=7)
    np.testing.assert_array_equal(plan_a.outer, plan_b.outer)
    union = np.concatenate([plan_a.test_rows(f) for f in range(6)])
    assert sorted(union) == list(range(ds.n))
    for fold in range(6):
        assert set(plan_a.inner_folds(fold)) == set(range(6)) - {fold}


def test_synthetic_determinism():
    a = small_portfolio(seed=11)
    b = small_portfolio(seed=11)
    for name in a.dataset.columns:
        np.testing.assert_array_equal(a.dataset.columns[name], b.dataset.columns[name])


def test_synthetic_effect_recovery():
    spec = PortfolioSpec(
        n=50_000,
        categorical={"flag": {"off": 0.5, "on": 0.5}},
        freq_intercept=-1.0,
        freq_coefs={"flag": {"off": 0.0, "on": 0.7}},
        exposure_range=(1.0, 1.0),
    )
    p = generate_synthetic_portfolio(spec, seed=2)
    y = p.dataset.response
    on = p.dataset.columns["flag"] == 1
    ratio = y[on].mean() / y[~on].mean()
    se = ratio * np.sqrt(1 / y[on].sum() + 1 / y[~on].sum())
    assert abs(ratio - np.exp(0.7)) < 3 * se


def test_claims_csv_roundtrip(tmp_path):
    claims = {0: [10.0, 20.0], 4: [5.5]}
    path = tmp_path / "claims.csv"
    write_claims_csv(claims, path)
    assert load_claims_csv(path) == claims
    path.write_text("row_id,amount\n0,10.0\nx,5.5\n")
    with pytest.raises(DataError, match="row 2: invalid literal for int"):
        load_claims_csv(path)
    for amount in ("nan", "inf", "-inf"):
        path.write_text(f"row_id,amount\n0,10.0\n4,{amount}\n")
        with pytest.raises(DataError, match=f"row 2: non-finite amount {float(amount)}$"):
            load_claims_csv(path)


def test_severity_view_rejects_claims_of_unknown_rows(toy):
    with pytest.raises(DataError, match=r"claims name rows \[-1, 5\] outside the 5-row portfolio"):
        severity_view(toy, {1: [10.0], 5: [1.0], -1: [2.0]})


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=60, max_value=400), st.integers(min_value=0, max_value=50))
def test_folds_partition_property(n, seed):
    counts = (np.arange(n) % 7 == 0).astype(float)
    schema = (ColumnSchema("exposure", "exposure"), ColumnSchema("claims", "response"))
    ds = Dataset(schema, {"exposure": np.ones(n), "claims": counts})
    plan = stratified_folds(ds, seed=seed)
    sizes = [len(plan.test_rows(f)) for f in range(6)]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=300, unique=True), st.data())
def test_bin_codes_equal_a_left_search(cuts, data):
    """For 0-300 strictly increasing cuts, values at the cuts, beside them
    and anywhere, signed zeros, infinities and NaN bin as numpy's left
    search does; so does a column of one of each special value."""
    cuts = np.sort(np.array(cuts, dtype=float))
    with np.errstate(over="ignore"):  # the float next to the largest is inf
        pool = [*cuts, *np.nextafter(cuts, np.inf), *np.nextafter(cuts, -np.inf), *_SPECIAL]
    values = np.array(data.draw(st.lists(st.one_of(st.sampled_from(pool), st.floats()),
                                         max_size=400)), dtype=float)
    for v in (values, np.array(_SPECIAL)):
        codes = bin_codes(cuts, v)
        expected = np.searchsorted(cuts, v, side="left")
        assert codes.dtype == expected.dtype
        np.testing.assert_array_equal(codes, expected)
