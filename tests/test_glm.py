"""IRLS GLMs, design building, BIC, tree binning."""

import re
import warnings

import numpy as np
import pytest

from freqsev.data import ColumnSchema, DataError, Dataset
from freqsev.evaluation import get_family
from freqsev.glm import (
    BinningRule,
    Design,
    GlmError,
    GlmModel,
    TREE_BIN_LEAVES,
    TREE_BIN_MIN_GAIN,
    TREE_BIN_MIN_SHARE,
    LevelGroups,
    build_design_matrix,
    fit_glm,
    tree_bin,
)
from freqsev.surrogate import VariableSegments, _fit_candidate

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


def test_a_level_code_outside_the_schema_never_reaches_a_glm():
    """A GLM would price such a code as some level; the frame is refused first."""
    p = small_portfolio(n=600, seed=9)
    ds = p.dataset
    model = fit_glm(ds, Design(("region",)), "poisson_log")
    for code in (3, 7, -1):
        with pytest.raises(DataError, match="region"):
            model.predict(ds.with_column("region", np.full(ds.n, code)))


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
    """The error names, in design order, the columns that earlier columns
    span; a surrogate search scores such a candidate (None, inf)."""
    ds = _counts_dataset([1.0, 2.0, 0.0, 1.0, 3.0, 0.0], np.ones(6), codes=[0, 0, 0, 1, 1, 2],
                         levels=("a", "b", "c"))
    with pytest.raises(GlmError, match=re.escape("aliased columns: ['f[b]', 'f[c]']")):
        fit_glm(ds, Design(("f", "f")), "poisson_log")
    schema = (*ds.schema, ColumnSchema("g", "categorical", ("n", "y")))
    # g = 1{f = a}, f's reference level: g[y] = (Intercept) - f[b] - f[c]
    with_g = Dataset(schema, {**ds.columns, "g": (ds.columns["f"] == 0).astype(np.int64)})
    with pytest.raises(GlmError, match=re.escape("aliased columns: ['g[y]']")):
        fit_glm(with_g, Design(("f", "g")), "poisson_log")
    segments = {name: VariableSegments(name, "categorical", levels, tuple(map(float, codes)),
                                       level_to_segment=codes)
                for name, levels, codes in (("f", "abc", (0, 1, 2)), ("g", "ny", (0, 1)))}
    assert _fit_candidate(with_g, segments, ("f", "g"), (), "poisson_log") == (None, np.inf)


def test_columns_whose_rows_hold_no_response_are_named_in_one_warning():
    """A level without claims has a maximum-likelihood coefficient of -inf,
    so IRLS's stopping rule sets it; one warning names every such column,
    and every fitted number stays as it was."""
    ds = _counts_dataset([1.0, 2.0, 0.0, 1.0, 3.0, 0.0], np.ones(6), codes=[0, 0, 0, 1, 1, 2],
                         levels=("a", "b", "c"))
    with pytest.warns(UserWarning) as record:
        model = fit_glm(ds, Design(("f",)), "poisson_log")
    assert [str(w.message) for w in record] == [
        "no response in the rows of columns ['f[c]']: their coefficients head for -inf "
        "and stop where IRLS converges"]
    np.testing.assert_allclose(model.coef[:2], [0.0, np.log(2.0)], atol=1e-12)
    assert -19.0 < model.coef[2] < -18.0  # a relativity of 6.5e-9
    four = _counts_dataset([1.0, 2.0, 0.0, 1.0, 3.0, 0.0, 0.0], np.ones(7),
                           codes=[0, 0, 0, 1, 1, 2, 3], levels=("a", "b", "c", "d"))
    with pytest.warns(UserWarning) as record:
        fit_glm(four, Design(("f",)), "poisson_log")
    assert len(record) == 1 and "columns ['f[c]', 'f[d]']:" in str(record[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_glm(_counts_dataset([1.0, 0.0, 0.0, 2.0], np.ones(4), codes=[0, 0, 1, 1]),
                Design(("f",)), "poisson_log")


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
    clone = GlmModel.from_dict(model.to_dict())
    np.testing.assert_array_equal(clone.predict(ds), model.predict(ds))
    assert clone.to_dict() == model.to_dict()
    table = model.tariff_table
    assert table["base_level"] > 0
    assert all(v > 0 for v in table["relativities"].values())


def test_level_groups_fit_as_a_frame_holding_the_groups():
    """A design that groups a categorical's levels codes each group as one
    level, labelled by its members in code order joined by `+`: the fit
    is the fit on a frame whose column holds the groups."""
    y, e = [2.0, 0.0, 1.0, 3.0, 0.0, 1.0, 1.0, 0.0], [1.0, 0.5, 1.0, 1.5, 1.0, 1.0, 0.5, 1.0]
    ds = _counts_dataset(y, e, codes=[0, 0, 1, 1, 1, 2, 2, 0], levels=("a", "b", "c"))
    groups = LevelGroups("f", (0, 1, 0))
    model = fit_glm(ds, Design(("f",), binning={"f": groups}), "poisson_log")
    grouped = _counts_dataset(y, e, codes=groups.apply(ds.columns["f"]), levels=("a+c", "b"))
    plain = fit_glm(grouped, Design(("f",)), "poisson_log")
    assert model.column_names == plain.column_names == ["(Intercept)", "f[b]"]
    assert model.references == plain.references == {"f": 0}
    np.testing.assert_array_equal(model.coef, plain.coef)
    clone = GlmModel.from_dict(model.to_dict())
    assert clone.design == model.design
    np.testing.assert_array_equal(clone.predict(ds), model.predict(ds))
    assert model.tariff_table["binning"] == {"f": {"level_to_segment": [0, 1, 0]}}
    with pytest.raises(GlmError, match="cover 3 levels, the column has 2"):
        model.predict(_counts_dataset(y, e, codes=[0, 1] * 4))
    for bad in ((0, 2, 2), (1, 1, 1), (0, 1.0, 0)):
        with pytest.raises(GlmError, match="must be the integers 0..k-1"):
            LevelGroups("f", bad)


def test_interaction_columns_reference_and_prediction_coding():
    # f: a 7, b 11 rows; g: x 5, y 9, z 4 rows, so b and y are the references
    cells = [(0, 0)] * 2 + [(0, 1)] * 3 + [(0, 2)] * 2 + [(1, 0)] * 3 + [(1, 1)] * 6 + [(1, 2)] * 2
    f, g = (np.array(c, dtype=np.int64) for c in zip(*cells))
    schema = (ColumnSchema("f", "categorical", ("a", "b")),
              ColumnSchema("g", "categorical", ("x", "y", "z")),
              ColumnSchema("exposure", "exposure"), ColumnSchema("claims", "response"))
    ds = Dataset(schema, {"f": f, "g": g, "exposure": np.ones(len(f)),
                          "claims": 1.0 + np.arange(len(f)) % 3})
    X, names, references = build_design_matrix(ds, Design(("f", "g"), (("f", "g"),)))
    assert names == ["(Intercept)", "f[a]", "g[x]", "g[z]", "f:g[a*x]", "f:g[a*z]"]
    assert references == {"f": 1, "g": 1}
    np.testing.assert_array_equal(X[:, 4], (f == 0) & (g == 0))
    np.testing.assert_array_equal(X[:, 5], (f == 0) & (g == 2))
    fit_glm(ds, Design(("f", "g"), (("f", "g"),)), "poisson_log")  # full rank

    design = Design(interactions=(("f", "g"),))
    model = fit_glm(ds, design, "poisson_log")
    rows = np.flatnonzero(f == 0)  # only level a of f here
    frame = ds.subset(rows)
    assert build_design_matrix(frame, design)[2] == {"f": 0, "g": 1}
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


def _ref_tree_bin(x, y, w, family, name):
    """`tree_bin` as first written: each leaf holds its own rows, sorted
    again for every split search, and each split masks them at the cut."""
    fam = get_family(family)
    root_dev = float(np.sum(fam.contributions(np.full(len(y), fam.mean(y, w)), y, w)))
    min_count = max(1, int(np.ceil(TREE_BIN_MIN_SHARE * len(y))))

    def best_split(rows):
        xv = x[rows]
        order = np.argsort(xv, kind="stable")
        xs, ys, ws = xv[order], y[rows][order], w[rows][order]
        boundary = np.flatnonzero(xs[:-1] < xs[1:]) + 1
        if boundary.size == 0:
            return None
        c1, c2 = fam.split_sums(ys, ws)
        t1, t2 = c1[-1], c2[-1]
        left = boundary - 1
        gain = (
            fam.half_deviance(t1, t2)
            - fam.half_deviance(c1[left], c2[left])
            - fam.half_deviance(t1 - c1[left], t2 - c2[left])
        )
        ok = (boundary >= min_count) & (len(xs) - boundary >= min_count)
        if not ok.any():
            return None
        gain = np.where(ok, gain, -np.inf)
        j = int(np.argmax(gain))
        return (float(gain[j]), float((xs[boundary[j] - 1] + xs[boundary[j]]) / 2.0))

    leaves, cuts = [np.arange(len(y))], []
    candidates = {0: best_split(leaves[0])}
    while len(leaves) < TREE_BIN_LEAVES:
        viable = {i: c for i, c in candidates.items()
                  if c is not None and c[0] > TREE_BIN_MIN_GAIN * max(root_dev, 1e-12)}
        if not viable:
            break
        i = max(viable, key=lambda j: viable[j][0])
        cut = viable[i][1]
        rows = leaves[i]
        leaves[i] = rows[x[rows] <= cut]
        leaves.append(rows[x[rows] > cut])
        cuts.append(cut)
        candidates[i] = best_split(leaves[i])
        candidates[len(leaves) - 1] = best_split(leaves[-1])
    return BinningRule(name, tuple(sorted(cuts)))


def _tree_bin_cases(count):
    """Seeded (x, response, weight, family) cases: Poisson counts with
    exposures and gamma averages with claim-count weights; uniform,
    rounded, integer-valued and five-valued x, so most hold tied values;
    20 to 3,000 rows; a random step function of x for the mean."""
    rng = np.random.default_rng(2018)
    for i in range(count):
        n = int(rng.integers(20, 3001))
        x = (
            rng.uniform(18.0, 80.0, n),
            np.round(rng.uniform(18.0, 80.0, n), 1),
            rng.integers(18, 81, n).astype(float),
            rng.choice([1.0, 2.5, 4.0, 7.0, 9.5], n),
        )[i % 4]
        steps = np.sort(rng.uniform(18.0, 80.0, 3))
        effect = rng.normal(0.0, 1.0, 4)[np.searchsorted(steps, x)]
        if i // 4 % 2 == 0:
            exposure = rng.uniform(0.1, 1.0, n)
            y = rng.poisson(0.3 * exposure * np.exp(effect)).astype(float)
            yield x, y, exposure, "poisson_log"
        else:
            counts = 1.0 + rng.poisson(0.3, n)
            y = rng.gamma(2.0 * counts, 500.0 * np.exp(effect) / (2.0 * counts))
            yield x, y, counts, "gamma_log"


def test_tree_bin_matches_per_leaf_reference():
    """Binning on runs of one sort gives the reference's cuts on every
    case of a seeded corpus."""
    n_cuts = []
    for k, (x, y, w, family) in enumerate(_tree_bin_cases(240)):
        rule = tree_bin(x, y, w, family=family, name="x")
        assert rule == _ref_tree_bin(x, y, w, family, "x"), k
        n_cuts.append(len(rule.cuts))
    assert np.mean(n_cuts) > 1.5 and max(n_cuts) == TREE_BIN_LEAVES - 1


def test_predictions_invariant_to_design_column_order():
    p = small_portfolio(n=600, seed=9)
    ds = p.dataset
    rule = tree_bin(ds.columns["age"], ds.response, ds.exposure, name="age")
    a = fit_glm(ds, Design(("age", "region"), binning={"age": rule}), "poisson_log")
    b = fit_glm(ds, Design(("region", "age"), binning={"age": rule}), "poisson_log")
    np.testing.assert_allclose(a.predict(ds), b.predict(ds), rtol=1e-8)
