"""Permutation importance and partial dependence."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from freqsev import gbm, pipeline
from freqsev.glm import BinningRule, Design, LevelGroups, fit_glm
from freqsev._rand import substream
from freqsev.data import (ColumnSchema, Dataset, PortfolioSpec, generate_synthetic_portfolio,
                          scaling_stats, stratified_folds)
from freqsev.interpretation import (
    PD_GRID_CAP,
    InterpretationError,
    default_pd_grid,
    partial_dependence,
    partial_dependence_2d,
    permutation_vip,
)
from freqsev.neural import Network, NetworkSpec

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


# -- one prediction per curve over the distinct rows -----------------------


def _reference_curve(model, dataset, variable, grid):
    """Partial dependence as one `predict` of the whole frame per grid point."""
    dtype = np.int64 if variable in dataset.categorical_names else float
    return np.array([np.mean(model.predict(dataset.with_column(
        variable, np.full(dataset.n, g, dtype=dtype)))) for g in grid])


def _reference_surface(model, dataset, var_a, var_b, grid_a, grid_b):
    dtype = np.int64 if var_a in dataset.categorical_names else float
    return np.array([_reference_curve(model, dataset.with_column(
        var_a, np.full(dataset.n, g, dtype=dtype)), var_b, grid_b) for g in grid_a])


def _network(dataset, plan, activation, cann_glm=None, encoder_dim=None):
    """A network of the desk spec ranges over the fold-0 scaling, with
    random weights, so that its predictions vary with every feature; with
    `encoder_dim`, a grafted encoder of that many codes."""
    spec = NetworkSpec(hidden_layers=2, nodes=12, activation=activation, dropout=0.0,
                       batch_size=500)
    net = Network(spec, len(dataset.continuous_names), 3, encoder_dim,
                  None if cann_glm is None else "fixed")
    net.set_flat_params(substream(7, "theta").normal(0.0, 0.5, len(net.theta)))
    stats = scaling_stats(dataset, plan.train_rows(0), train_fold=0)
    return pipeline.AveragedNetworks("poisson_log", [net], stats, spec, [], cann_glm)


@pytest.fixture(scope="module")
def fitted():
    """(model, dataset) per family; ages are whole years, so a curve over
    region predicts several grid points in one call."""
    ds = small_portfolio(n=600, seed=3).dataset
    ds = ds.with_column("age", np.round(ds.columns["age"]))
    plan = stratified_folds(ds, seed=0)
    glm = pipeline.fit_fold_glm(ds, "poisson_log", plan.train_rows(0), 0)
    spec = PortfolioSpec(n=600, continuous={"age": (18.0, 80.0), "power": (40.0, 200.0)},
                         categorical={"region": {"north": 0.5, "south": 0.3, "east": 0.2},
                                      "cover": {"basic": 0.6, "full": 0.4}},
                         freq_intercept=-1.0, freq_coefs={"age": -0.01, "power": 0.004})
    wide = generate_synthetic_portfolio(spec, seed=4).dataset
    walk = gbm.fit_gbm(wide, "poisson_log", 30, 3, seed=0)
    assert math.prod(walk._radices(wide)) > gbm._SCRATCH
    memo = gbm.fit_gbm(ds, "poisson_log", 30, 3, seed=0)
    assert math.prod(memo._radices(ds)) <= gbm._SCRATCH
    # a surrogate's design: a binned continuous, a grouped categorical and their pair
    rules = {"age": BinningRule("age", (30.0, 45.0, 60.0)),
             "region": LevelGroups("region", (0, 1, 0))}
    surrogate = fit_glm(ds, Design(("age", "region"), (("age", "region"),), rules), "poisson_log")
    return {"glm": (glm, ds), "surrogate_glm": (surrogate, ds),
            "gbm_memo": (memo, ds), "gbm_walk": (walk, wide),
            "ffnn": (_network(ds, plan, "softmax"), ds),
            "cann_glm_fixed": (_network(ds, plan, "sigmoid", glm), ds),
            "cann_glm_fixed_encoder": (_network(ds, plan, "relu", glm, encoder_dim=2), ds)}


@pytest.mark.parametrize("family", ["glm", "surrogate_glm", "gbm_memo", "gbm_walk", "ffnn",
                                    "cann_glm_fixed", "cann_glm_fixed_encoder"])
def test_every_family_prices_a_row_from_that_row_alone(fitted, family):
    """Each row of a 600-row frame, priced alone, in chunks of 2, 3, 5 and
    7 rows, and in a frame of the rows in reverse order, gets the bits of
    the whole frame's prediction."""
    model, ds = fitted[family]
    whole = model.predict(ds)
    for size in (1, 2, 3, 5, 7):
        chunks = [model.predict(ds.subset(np.arange(start, min(start + size, ds.n))))
                  for start in range(0, ds.n, size)]
        assert np.concatenate(chunks).tobytes() == whole.tobytes(), size
    reverse = np.arange(ds.n)[::-1]
    assert model.predict(ds.subset(reverse))[::-1].tobytes() == whole.tobytes()


@pytest.mark.parametrize("family", ["glm", "gbm_memo", "gbm_walk", "ffnn", "cann_glm_fixed"])
def test_pd_has_the_bits_of_one_prediction_per_grid_point(fitted, family):
    """Every curve and every 2-D surface, over default grids, equals to
    the bit the loop that predicts the whole frame at each grid point."""
    model, ds = fitted[family]
    grids = {}
    for variable in ds.feature_names:
        curve = partial_dependence(model, ds, variable)
        grids[variable] = curve.grid[np.round(np.linspace(0, len(curve.grid) - 1,
                                                          min(len(curve.grid), 6))).astype(int)]
        reference = _reference_curve(model, ds, variable, curve.grid)
        assert curve.values.tobytes() == reference.tobytes(), variable
        assert len(np.unique(curve.values)) > 1, variable  # not a flat curve
    for var_a, var_b in itertools.permutations(ds.feature_names, 2):
        ga, gb, surface = partial_dependence_2d(model, ds, var_a, var_b, grids[var_a], grids[var_b])
        reference = _reference_surface(model, ds, var_a, var_b, ga, gb)
        assert surface.tobytes() == reference.tobytes(), (var_a, var_b)


class CountingModel(LogLinearModel):
    """A log-linear model that records the row count of each `predict`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def predict(self, dataset):
        self.calls.append(dataset.n)
        return super().predict(dataset)


@pytest.mark.parametrize("n, points", [(1, 4), (4, 3), (10, 7), (10, 9), (600, 100)])
def test_pd_predicts_whole_grid_points_in_calls_of_at_most_n_rows(n, points):
    """A curve over the u distinct rows of the other features takes
    ceil(points / floor(n / u)) calls, none of more than n rows; a
    surface keys the rows without both of its variables."""
    ds = small_portfolio(n=600, seed=5).dataset.subset(np.arange(n))
    model = CountingModel(intercept=-1.0, cont_coefs={"age": 0.03},
                          cat_coefs={"region": [0.0, 0.5, -0.5]})
    grid = np.linspace(20.0, 70.0, points)
    u = len(np.unique(ds.columns["region"]))
    curve = partial_dependence(model, ds, "age", grid)
    assert len(model.calls) == math.ceil(points / (n // u)) and max(model.calls) <= n
    np.testing.assert_array_equal(curve.values, _reference_curve(model, ds, "age", grid))

    model.calls.clear()
    _, _, surface = partial_dependence_2d(model, ds, "age", "region", grid)
    assert len(model.calls) == math.ceil(3 * points / n) and max(model.calls) <= n
    np.testing.assert_array_equal(
        surface, _reference_surface(model, ds, "age", "region", grid, np.arange(3)))


def test_pd_over_an_empty_grid_is_an_empty_curve(portfolio):
    model = CountingModel(intercept=-1.0, cont_coefs={"age": 0.03})
    curve = partial_dependence(model, portfolio.dataset, "age", grid=[])
    assert len(curve.grid) == len(curve.values) == 0
    region = partial_dependence(model, portfolio.dataset, "region", grid=[])
    assert region.labels == () and len(region.values) == 0
    _, _, surface = partial_dependence_2d(model, portfolio.dataset, "age", "region", [20.0], [])
    assert surface.shape == (1, 0)
    assert model.calls == []


# -- inputs that cannot be explained --------------------------------------


def test_pd_of_an_unknown_variable_names_it(portfolio):
    with pytest.raises(InterpretationError, match="'nosuch' is not a feature"):
        partial_dependence(ConstantModel(1.0), portfolio.dataset, "nosuch")
    with pytest.raises(InterpretationError, match="'nosuch' is not a feature"):
        partial_dependence_2d(ConstantModel(1.0), portfolio.dataset, "age", "nosuch")


@pytest.mark.parametrize("column", ["exposure", "claim_count"])
def test_pd_over_exposure_or_the_response_names_it(portfolio, column):
    """Neither column is a model input, so its curve would be flat."""
    with pytest.raises(InterpretationError, match=f"'{column}' is not a feature"):
        partial_dependence(ConstantModel(1.0), portfolio.dataset, column)


@pytest.mark.parametrize("point", [np.nan, np.inf, -np.inf])
def test_pd_at_a_non_finite_grid_point_names_the_variable(fitted, point):
    """A GLM and a GBM would both price NaN, in their last bin."""
    for family in ("glm", "gbm_memo"):
        model, ds = fitted[family]
        with pytest.raises(InterpretationError, match="grid of 'age' holds a non-finite point"):
            partial_dependence(model, ds, "age", grid=[30.0, point])
        with pytest.raises(InterpretationError, match="grid of 'age' holds a non-finite point"):
            partial_dependence_2d(model, ds, "region", "age", grid_b=[point])


def test_vip_on_an_empty_dataset_is_an_error(portfolio):
    empty = portfolio.dataset.subset(np.array([], dtype=int))
    with pytest.raises(InterpretationError, match=r"importance of \['age', 'region'\] on an empty"):
        permutation_vip(ConstantModel(1.0), empty)


def test_two_way_pd_of_one_variable_twice_names_it(portfolio):
    with pytest.raises(InterpretationError, match="needs two variables, got 'age' twice"):
        partial_dependence_2d(ConstantModel(1.0), portfolio.dataset, "age", "age")
