"""Permutation importance, partial dependence, Monte-Carlo Shapley."""

import itertools
import tracemalloc

import numpy as np
import pytest

from freqsev.data import ColumnSchema, Dataset
from freqsev.interpretation import (
    PD_GRID_CAP,
    InterpretationError,
    default_pd_grid,
    partial_dependence,
    partial_dependence_2d,
    permutation_vip,
    shapley_mc,
)

from conftest import ConstantModel, LogLinearModel, small_portfolio, toy_dataset


def test_vip_ignored_variable_is_zero(portfolio):
    model = LogLinearModel(intercept=-1.0, cont_coefs={"age": 0.02})
    vip, relative = permutation_vip(model, portfolio.dataset, seed=0)
    assert vip["region"] == 0.0
    assert abs(sum(relative.values()) - 1.0) < 1e-12
    assert relative["age"] == 1.0


def test_vip_matches_direct_evaluation(portfolio):
    # duplicate computation with the same named substream permutation
    from freqsev._rand import substream

    model = LogLinearModel(intercept=0.0, cont_coefs={"age": 0.5})
    ds = portfolio.dataset
    vip, _ = permutation_vip(model, ds, seed=3)
    perm = substream(3, "vip", "age").permutation(ds.n)
    base = np.exp(0.5 * ds.columns["age"])
    shuffled = np.exp(0.5 * ds.columns["age"][perm])
    assert abs(vip["age"] - np.sum(np.abs(base - shuffled))) < 1e-8 * vip["age"]


def test_vip_deterministic_and_nonnegative(portfolio):
    model = LogLinearModel(intercept=-1.0, cont_coefs={"age": 0.01},
                           cat_coefs={"region": [0.0, 0.3, -0.2]})
    a, _ = permutation_vip(model, portfolio.dataset, seed=9)
    b, _ = permutation_vip(model, portfolio.dataset, seed=9)
    assert a == b
    assert all(v >= 0 for v in a.values())


def test_pd_constant_model(portfolio):
    curve = partial_dependence(ConstantModel(0.7), portfolio.dataset, "age")
    np.testing.assert_allclose(curve.values, 0.7)


def test_pd_factorization(portfolio):
    model = LogLinearModel(intercept=-1.0, cont_coefs={"age": 0.03},
                           cat_coefs={"region": [0.0, 0.5, -0.5]})
    curve = partial_dependence(model, portfolio.dataset, "age")
    ratio = curve.values / np.exp(0.03 * curve.grid)
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)


def test_pd_single_row_is_prediction_sweep(portfolio):
    ds = portfolio.dataset.subset(np.array([0]))
    model = LogLinearModel(intercept=0.0, cont_coefs={"age": 0.1})
    grid = np.array([20.0, 30.0])
    curve = partial_dependence(model, ds, "age", grid)
    np.testing.assert_allclose(curve.values, np.exp(0.1 * grid))


def test_pd_categorical_labels(portfolio):
    curve = partial_dependence(ConstantModel(1.0), portfolio.dataset, "region")
    assert curve.labels == ("north", "south", "east")


def test_pd_grid_cap(portfolio):
    ds = portfolio.dataset
    fine = ds.with_column("age", np.round(ds.columns["age"], 3))
    curve = partial_dependence(ConstantModel(1.0), fine, "age")
    assert len(curve.grid) <= 100


def test_pd_linearity_over_model_averaging(portfolio):
    m1 = LogLinearModel(intercept=0.0, cont_coefs={"age": 0.02})
    m2 = ConstantModel(2.0)

    class Avg:
        def predict(self, ds):
            return (m1.predict(ds) + m2.predict(ds)) / 2

    grid = np.array([20.0, 50.0, 80.0])
    pd_avg = partial_dependence(Avg(), portfolio.dataset, "age", grid).values
    pd_each = (
        partial_dependence(m1, portfolio.dataset, "age", grid).values
        + partial_dependence(m2, portfolio.dataset, "age", grid).values
    ) / 2
    np.testing.assert_allclose(pd_avg, pd_each, rtol=1e-12)


def test_pd_empty_dataset_error(portfolio):
    empty = portfolio.dataset.subset(np.array([], dtype=int))
    with pytest.raises(InterpretationError):
        partial_dependence(ConstantModel(1.0), empty, "age")


def test_two_way_pd_shape(portfolio):
    ga, gb, surface = partial_dependence_2d(
        ConstantModel(1.0), portfolio.dataset, "age", "region",
        grid_a=np.array([20.0, 40.0]),
    )
    assert surface.shape == (2, 3)
    np.testing.assert_allclose(surface, 1.0)


def test_shapley_constant_model(portfolio):
    contributions, base = shapley_mc(ConstantModel(1.5), portfolio.dataset, row=0,
                                     n_permutations=5, seed=0)
    assert base == 1.5
    assert all(abs(c) < 1e-12 for c in contributions.values())


def test_shapley_efficiency(portfolio):
    model = LogLinearModel(intercept=-1.0, cont_coefs={"age": 0.02},
                           cat_coefs={"region": [0.0, 0.4, -0.4]})
    ds = portfolio.dataset
    contributions, base = shapley_mc(model, ds, row=3, n_permutations=10, seed=1)
    f_row = model.predict(ds.subset(np.array([3])))[0]
    assert abs(sum(contributions.values()) + base - f_row) < 1e-10


def test_shapley_two_feature_exact(toy):
    # 2 features: the estimator with both orderings equals full enumeration
    model = LogLinearModel(intercept=0.0, cont_coefs={"age": 0.01},
                           cat_coefs={"region": [0.0, 0.2, -0.2]})
    contributions, base = shapley_mc(model, toy, row=1, n_permutations=1, seed=2,
                                     exhaustive=True)

    features = ["age", "region"]
    row_vals = {v: toy.columns[v][1] for v in features}

    def value(subset):
        ds = toy
        for v in subset:
            ds = ds.with_column(v, np.full(toy.n, row_vals[v]))
        return float(np.mean(model.predict(ds)))

    exact = {}
    for v in features:
        other = [f for f in features if f != v][0]
        exact[v] = 0.5 * (value([v]) - value([])) + 0.5 * (
            value([v, other]) - value([other])
        )
    for v in features:
        assert abs(contributions[v] - exact[v]) < 1e-10


def test_shapley_additive_convergence():
    p = small_portfolio(n=400, seed=12)
    model = LogLinearModel(intercept=0.0, cont_coefs={"age": 0.01})
    contributions, base = shapley_mc(model, p.dataset, row=0, n_permutations=200, seed=3)
    # only age matters; region contribution should be ~0
    assert abs(contributions["region"]) < 1e-10
    assert contributions["age"] != 0.0


def _age_only(age):
    schema = (
        ColumnSchema("age", "continuous"),
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    )
    n = len(age)
    return Dataset(schema, {"age": age, "exposure": np.ones(n), "claims": np.zeros(n)})


def test_default_pd_grid_equals_thinned_arange():
    rng = np.random.default_rng(21)
    for n in (2, 5, 30, 80):
        for age in (
            rng.uniform(18.0, 80.0, n),
            rng.integers(18, 80, n).astype(float),
            np.round(rng.uniform(0.0, 100.0, n), 2),
        ):
            x = np.unique(age)
            if len(x) == 1:
                continue
            step = np.min(np.diff(x))
            full = np.arange(x[0], x[-1] + step / 2, step)
            if len(full) > PD_GRID_CAP:
                full = full[np.round(np.linspace(0, len(full) - 1, PD_GRID_CAP)).astype(int)]
            np.testing.assert_array_equal(default_pd_grid(_age_only(age), "age"), full)


def test_default_pd_grid_memory_is_bounded():
    # the smallest gap of 200k uniform values is about 1e-9 of the range,
    # so the full arange would hold billions of points
    ds = _age_only(np.random.default_rng(22).uniform(18.0, 80.0, 200_000))
    tracemalloc.start()
    try:
        grid = default_pd_grid(ds, "age")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid) == PD_GRID_CAP
    assert grid[0] == ds.columns["age"].min()
    assert peak < 16 * 2**20, peak
