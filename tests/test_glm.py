"""IRLS GLMs, design building, BIC, tree binning."""

import numpy as np
import pytest

from freqsev.data import ColumnSchema, Dataset
from freqsev.glm import (
    BinningRule,
    Design,
    GlmError,
    build_design_matrix,
    fit_glm,
    glm_from_json,
    tree_bin,
)

from conftest import small_portfolio


def _counts_dataset(y, e, codes=None, levels=("a", "b")):
    schema = [ColumnSchema("exposure", "exposure"), ColumnSchema("claims", "response")]
    columns = {"exposure": np.asarray(e, dtype=float), "claims": np.asarray(y, dtype=float)}
    if codes is not None:
        schema.insert(0, ColumnSchema("f", "categorical", levels))
        columns["f"] = np.asarray(codes, dtype=np.int64)
    return Dataset(tuple(schema), columns)


def test_intercept_only_poisson_closed_form():
    ds = _counts_dataset([2.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    model = fit_glm(ds, Design(), "poisson_log")
    assert abs(model.coef[0]) < 1e-10
    np.testing.assert_allclose(model.predict(ds), 1.0, atol=1e-10)


def test_single_factor_poisson_cell_means():
    ds = _counts_dataset(
        [2.0, 0.0, 1.0, 3.0], [1.0, 0.5, 1.0, 1.5], codes=[0, 0, 1, 1]
    )
    model = fit_glm(ds, Design(("f",)), "poisson_log")
    pred = model.predict(ds)
    np.testing.assert_allclose(pred[:2], 2.0 / 1.5, rtol=1e-8)
    np.testing.assert_allclose(pred[2:], 4.0 / 2.5, rtol=1e-8)


def test_poisson_balance_property():
    p = small_portfolio(n=800, seed=4)
    ds = p.dataset
    model = fit_glm(ds, Design(("region",)), "poisson_log")
    fitted = np.sum(ds.exposure * model.predict(ds))
    assert abs(fitted - ds.response.sum()) < 1e-6 * ds.response.sum()


def test_poisson_score_equations():
    p = small_portfolio(n=800, seed=4)
    ds = p.dataset
    model = fit_glm(ds, Design(("region",)), "poisson_log")
    X, _, _ = build_design_matrix(ds, model.design)
    mu = ds.exposure * model.predict(ds)
    np.testing.assert_allclose(X.T @ (ds.response - mu), 0.0, atol=1e-6)


def test_intercept_only_gamma_weighted_mean():
    schema = (ColumnSchema("sev", "response"),)
    ds = Dataset(schema, {"sev": np.array([100.0, 300.0])}, weights=np.array([1.0, 3.0]))
    model = fit_glm(ds, Design(), "gamma_log")
    np.testing.assert_allclose(model.predict(ds), 250.0, rtol=1e-8)


def test_rank_deficiency_names_columns():
    ds = _counts_dataset([1.0, 2.0], [1.0, 1.0], codes=[0, 1])
    design = Design(("f", "f"))
    with pytest.raises(GlmError, match="aliased"):
        fit_glm(ds, design, "poisson_log")


def test_duplicated_rows_leave_fit_unchanged():
    ds = _counts_dataset([2.0, 0.0, 1.0, 3.0], [1.0, 0.5, 1.0, 1.5], codes=[0, 0, 1, 1])
    doubled = ds.subset(np.tile(np.arange(4), 2))
    a = fit_glm(ds, Design(("f",)), "poisson_log")
    b = fit_glm(doubled, Design(("f",)), "poisson_log")
    np.testing.assert_allclose(a.coef, b.coef, atol=1e-9)


def test_bic_penalizes_parameters():
    p = small_portfolio(n=900, seed=8)
    ds = p.dataset
    base = fit_glm(ds, Design(), "poisson_log")
    noisy = ds.with_column("noise", (np.arange(ds.n) % 2).astype(np.int64))
    schema = (*ds.schema, ColumnSchema("noise", "categorical", ("u", "v")))
    noisy = Dataset(schema, dict(noisy.columns), noisy.weights)
    bigger = fit_glm(noisy, Design(("noise",)), "poisson_log")
    assert bigger.bic > base.bic


def test_json_roundtrip_and_tariff_table():
    ds = _counts_dataset([2.0, 0.0, 1.0, 3.0], [1.0, 0.5, 1.0, 1.5], codes=[0, 0, 1, 1])
    model = fit_glm(ds, Design(("f",)), "poisson_log")
    clone = glm_from_json(model.to_json())
    np.testing.assert_allclose(clone.predict(ds), model.predict(ds), rtol=1e-12)
    table = model.tariff_table
    assert table["base_level"] > 0
    assert all(v > 0 for v in table["relativities"].values())


def test_interaction_columns_reference_and_prediction_coding():
    # cell counts of (f, g): b*y is the most populous combination
    cells = [(0, 0)] * 2 + [(0, 1)] * 3 + [(0, 2)] * 2 + [(1, 0)] * 3 + [(1, 1)] * 6 + [(1, 2)] * 2
    f, g = (np.array(c, dtype=np.int64) for c in zip(*cells))
    schema = (ColumnSchema("f", "categorical", ("a", "b")),
              ColumnSchema("g", "categorical", ("x", "y", "z")),
              ColumnSchema("exposure", "exposure"), ColumnSchema("claims", "response"))
    ds = Dataset(schema, {"f": f, "g": g, "exposure": np.ones(len(f)),
                          "claims": 1.0 + np.arange(len(f)) % 3})
    X, names, references = build_design_matrix(ds, Design(("f", "g"), (("f", "g"),)))
    assert names == ["(Intercept)", "f[a]", "g[x]", "g[z]",
                     "f:g[a*x]", "f:g[a*y]", "f:g[a*z]", "f:g[b*x]", "f:g[b*z]"]
    assert references == {"f": 1, "g": 1, "f:g": 4}
    np.testing.assert_array_equal(X[:, 7], (f == 1) & (g == 0))

    design = Design(interactions=(("f", "g"),))
    model = fit_glm(ds, design, "poisson_log")
    rows = np.flatnonzero(f == 0)  # a*y is the most populous combination here
    frame = ds.subset(rows)
    assert build_design_matrix(frame, design)[2] == {"f:g": 1}
    assert build_design_matrix(frame, design, model.references)[1] == model.column_names
    np.testing.assert_allclose(model.predict(frame), model.predict(ds)[rows], rtol=1e-12)


def test_binning_rule_apply():
    rule = BinningRule("x", (10.0, 20.0))
    np.testing.assert_array_equal(rule.apply(np.array([5.0, 10.0, 15.0, 25.0])), [0, 0, 1, 2])
    with pytest.raises(GlmError):
        BinningRule("x", (3.0, 2.0))


def test_tree_bin_recovers_step():
    rng = np.random.default_rng(6)
    x = rng.uniform(20.0, 60.0, 4000)
    rate = np.where(x < 40.0, 0.05, 0.20)
    y = rng.poisson(rate).astype(float)
    rule = tree_bin(x, y, np.ones(4000), family="poisson_log", name="x")
    assert len(rule.cuts) >= 1
    assert any(abs(c - 40.0) < 3.0 for c in rule.cuts)
    assert all(x.min() < c < x.max() for c in rule.cuts)


def test_tree_bin_null_and_constant():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 1500)
    y = rng.poisson(0.2, 1500).astype(float)
    rule = tree_bin(x, y, np.ones(1500), family="poisson_log", name="x")
    assert rule.n_bins <= 2
    with pytest.warns(UserWarning):
        const = tree_bin(np.ones(50), y[:50], np.ones(50), name="x")
    assert const.cuts == ()


def test_predictions_invariant_to_design_column_order():
    p = small_portfolio(n=600, seed=9)
    ds = p.dataset
    rule = tree_bin(ds.columns["age"], ds.response, ds.exposure, name="age")
    a = fit_glm(ds, Design(("age", "region"), binning={"age": rule}), "poisson_log")
    b = fit_glm(ds, Design(("region", "age"), binning={"age": rule}), "poisson_log")
    np.testing.assert_allclose(a.predict(ds), b.predict(ds), rtol=1e-8)
