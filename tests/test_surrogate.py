"""DP segmentation and surrogate GLM distillation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsev.data import ColumnSchema, Dataset, PortfolioSpec, generate_synthetic_portfolio
from freqsev.glm import BinningRule, Design, build_design_matrix, fit_glm
from freqsev.interpretation import default_pd_grid, partial_dependence
from freqsev.pipeline import load_model, save_model
from freqsev.surrogate import (
    K_MAX,
    MAX_EXHAUSTIVE,
    PENALTY,
    PENALTY_GRID,
    SurrogateError,
    _dp_tables,
    _grid_weights,
    build_surrogate,
    choose_k,
    dp_segment,
    segment_variable,
)

from conftest import ConstantModel, LogLinearModel, small_portfolio


def brute_force_cost(values, weights, k):
    n = len(values)
    best = np.inf
    for splits in itertools.combinations(range(1, n), k - 1):
        bounds = zip((0, *splits), (*splits, n))
        cost = 0.0
        for i, j in bounds:
            w = weights[i:j]
            v = values[i:j]
            if w.sum() > 0:
                mean = np.sum(w * v) / w.sum()
                cost += float(np.sum(w * (v - mean) ** 2))
        best = min(best, cost)
    return best


def reference_dp_tables(values, weights, k_max):
    """The DP as a plain triple loop over segment count, end point and the
    start of the last segment; a strict `<` keeps the first minimizer."""
    n = len(values)
    w = np.concatenate([[0.0], np.cumsum(weights)])
    wv = np.concatenate([[0.0], np.cumsum(weights * values)])
    wv2 = np.concatenate([[0.0], np.cumsum(weights * values * values)])

    def sse(i, j):  # inclusive indices
        tw = w[j + 1] - w[i]
        if tw <= 0:
            return 0.0
        s = wv[j + 1] - wv[i]
        return max(0.0, (wv2[j + 1] - wv2[i]) - s * s / tw)

    cost = np.full((k_max + 1, n), np.inf)
    split = np.zeros((k_max + 1, n), dtype=int)
    for j in range(n):
        cost[1, j] = sse(0, j)
    for m in range(2, k_max + 1):
        for j in range(m - 1, n):
            best, arg = np.inf, m - 1
            for i in range(m - 1, j + 1):
                c = cost[m - 1, i - 1] + sse(i, j)
                if c < best:
                    best, arg = c, i
            cost[m, j] = best
            split[m, j] = arg
    return cost, split


@st.composite
def _dp_inputs(draw):
    """Values drawn from a pool of 1..n distinct numbers, so constant and
    repeated values are common; weights are counts or reals, often zero."""
    n = draw(st.integers(1, 60))
    pool = draw(st.lists(st.floats(-100, 100, allow_subnormal=False),
                         min_size=1, max_size=draw(st.integers(1, n))))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    weight = st.one_of(st.just(0.0), st.integers(1, 50).map(float), st.floats(0.01, 100))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return np.array(values), np.array(weights), draw(st.integers(1, n))


@settings(max_examples=200, deadline=None)
@given(_dp_inputs())
def test_dp_tables_equal_the_triple_loop(case):
    values, weights, k_max = case
    cost, split = _dp_tables(values, weights, k_max)
    ref_cost, ref_split = reference_dp_tables(values, weights, k_max)
    np.testing.assert_array_equal(cost, ref_cost)
    np.testing.assert_array_equal(split, ref_split)


def test_dp_trivial_cases():
    values = np.array([1.0, 5.0, 2.0, 8.0])
    weights = np.ones(4)
    all_singletons = dp_segment(values, weights, 4)
    assert all_singletons.cost == 0.0
    assert len(all_singletons.bounds) == 4
    one = dp_segment(values, weights, 1)
    assert abs(one.cost - np.sum((values - values.mean()) ** 2)) < 1e-12


def test_dp_matches_brute_force():
    rng = np.random.default_rng(0)
    for n in (5, 8, 10):
        values = rng.normal(size=n)
        weights = rng.uniform(0.5, 3.0, n)
        for k in range(1, n + 1):
            segs = dp_segment(values, weights, k)
            assert abs(segs.cost - brute_force_cost(values, weights, k)) < 1e-9


def test_dp_cost_monotone_in_k():
    rng = np.random.default_rng(1)
    values = rng.normal(size=15)
    weights = rng.uniform(0.5, 2.0, 15)
    costs = [dp_segment(values, weights, k).cost for k in range(1, 16)]
    assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


def test_dp_errors():
    with pytest.raises(SurrogateError):
        dp_segment([1.0, 2.0], [1.0, 1.0], 3)
    with pytest.raises(SurrogateError):
        dp_segment([1.0], [1.0], 0)


@pytest.mark.parametrize("values, weights, message", [
    ([1.0, 2.0, 3.0, 10.0], [1.0, -5.0, 1.0, 1.0], "non-negative"),
    ([1.0, 2.0, 3.0], [1.0, 1.0], "align"),
    ([], [], "no values"),
])
def test_choose_k_checks_its_input_as_dp_segment_does(values, weights, message):
    with pytest.raises(SurrogateError, match=message):
        dp_segment(values, weights, 2)
    with pytest.raises(SurrogateError, match=message):
        choose_k(values, weights, 3)


def test_choose_k_flat_curve():
    assert choose_k(np.full(10, 0.3), np.full(10, 100.0), k_max=5) == 1


def test_choose_k_two_plateaus_and_monotone_in_penalty():
    values = np.concatenate([np.full(5, 0.1), np.full(5, 0.9)])
    weights = np.full(10, 200.0)
    for lam in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert choose_k(values, weights, k_max=6, penalty=lam) == 2
    noisy = values + np.random.default_rng(2).normal(scale=0.01, size=10)
    ks = [choose_k(noisy, weights, 8, lam) for lam in (0.01, 0.1, 1.0, 10.0, 100.0)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


def test_segment_variable_groups_categorical_levels(portfolio):
    ds = portfolio.dataset
    grid = np.arange(3)
    pd_values = np.array([0.2, 0.2, 0.8])  # first two levels identical
    seg = segment_variable(ds, "region", grid, pd_values, penalty=0.1)
    assert seg.n_segments == 2 and seg.labels == ("north+south", "east")
    mapped = seg.rule.apply(np.array([0, 1, 2], dtype=np.int64))
    assert mapped[0] == mapped[1] != mapped[2]


def test_value_at_a_cut_falls_in_the_segment_whose_label_ends_there():
    # an integer column like engine power in kW: 64 of the 99 midpoints of
    # its 100-point PD grid are data values, so a cut can equal a value
    power = np.arange(10.0, 244.0)
    schema = (ColumnSchema("power", "continuous"), ColumnSchema("exposure", "exposure"),
              ColumnSchema("claim_count", "response"))
    column = np.repeat(power, 5)
    ds = Dataset(schema, {"power": column, "exposure": np.ones(len(column)),
                          "claim_count": np.zeros(len(column))})
    grid = default_pd_grid(ds, "power")
    assert len(grid) == 100 and np.isin((grid[:-1] + grid[1:]) / 2.0, power).sum() == 64
    seg = segment_variable(ds, "power", grid, np.where(grid <= 128.0, 1.0, 3.0))
    assert seg.cuts == (129.0,) and seg.labels == ("(-inf,129]", "(129,inf]")
    assert seg.rule == BinningRule("power", seg.cuts)
    np.testing.assert_array_equal(seg.rule.apply(np.array([128.0, 129.0, 130.0])), [0, 0, 1])
    # in a design, the first (more populous) segment is the reference
    X, names, _ = build_design_matrix(ds, Design(("power",), binning={"power": seg.rule}))
    assert names == ["(Intercept)", "power[(129,inf]]"]
    np.testing.assert_array_equal(X[:, 1], column > 129.0)


def _distillation_case(n=5000, seed=0, joint=0.0):
    spec = PortfolioSpec(
        n=n,
        continuous={"age": (18.0, 80.0)},
        categorical={"region": {"north": 0.4, "south": 0.35, "east": 0.25}},
        freq_intercept=-1.2,
        freq_coefs={"region": {"north": 0.0, "south": 0.8, "east": -0.8}},
        exposure_range=(1.0, 1.0),
    )
    p = generate_synthetic_portfolio(spec, seed=seed)
    ds = p.dataset
    # impose a piecewise-constant age effect so the black-box is a binned GLM
    age = np.floor(ds.columns["age"])
    ds = ds.with_column("age", age)
    rng = np.random.default_rng(seed + 1)
    bump = np.where(age <= 40.0, 0.0, np.where(age <= 60.0, 0.8, 1.6))
    rate = p.true_rate * np.exp(bump + joint * _older_south(ds))
    ds = ds.with_column("claim_count", rng.poisson(ds.exposure * rate).astype(float))
    design = Design(("age", "region"), binning={"age": BinningRule("age", (40.0, 60.0))})
    black_box = fit_glm(ds, design, "poisson_log")
    if joint:
        black_box = _JointEffect(black_box, joint)
    return ds, black_box


def _older_south(dataset):
    return (dataset.columns["age"] > 50.0) & (dataset.columns["region"] == 1)


class _JointEffect:
    """`base` times e^joint on the rows over 50 in the south."""

    def __init__(self, base, joint):
        self.base, self.joint = base, joint

    def predict(self, dataset):
        return self.base.predict(dataset) * np.exp(self.joint * _older_south(dataset))


def test_self_distillation_recovers_black_box():
    ds, black_box = _distillation_case()
    surrogate = build_surrogate(black_box, ds, "poisson_log")
    assert set(surrogate.report["selected"]["mains"]) == {"age", "region"}
    ratio = surrogate.predict(ds) / black_box.predict(ds)
    assert np.max(np.abs(ratio - 1.0)) < 0.01


def test_surrogate_selects_an_interaction_the_black_box_has():
    ds, black_box = _distillation_case(n=2000, seed=6, joint=0.8)
    report = build_surrogate(black_box, ds, "poisson_log").report
    assert set(report["selected"]["mains"]) == {"age", "region"}
    assert report["selected"]["interactions"] == [["age", "region"]]
    pair = [c for c in report["candidates"] if c.get("interactions")]
    assert len(pair) == 1 and np.isfinite(pair[0]["bic"])
    assert pair[0]["bic"] == report["selected"]["bic"]


def test_flat_model_gives_intercept_only(portfolio):
    with pytest.warns(UserWarning, match="flat"):
        surrogate = build_surrogate(ConstantModel(0.4), portfolio.dataset, "poisson_log")
    assert surrogate.segments == {}
    pred = surrogate.predict(portfolio.dataset)
    np.testing.assert_allclose(pred, pred[0])


def test_ignored_variable_not_selected():
    p = small_portfolio(n=3000, seed=4, freq_intercept=-0.8)
    model = LogLinearModel(intercept=-0.8, cat_coefs={"region": [0.0, 0.9, -0.9]})
    surrogate = build_surrogate(model, p.dataset, "poisson_log")
    assert "age" not in surrogate.report["selected"]["mains"]


def test_surrogate_piecewise_constant():
    ds, black_box = _distillation_case(n=2500, seed=5)
    surrogate = build_surrogate(black_box, ds, "poisson_log")
    binning = surrogate.glm.design.binning
    pred = surrogate.predict(ds)
    # identical segment cells share one prediction
    cell = np.stack([binning[v].apply(ds.columns[v]) for v in surrogate.segments], axis=1)
    _, inverse = np.unique(cell, axis=0, return_inverse=True)
    for c in range(inverse.max() + 1):
        vals = pred[inverse == c]
        np.testing.assert_allclose(vals, vals[0], rtol=1e-12)


@pytest.mark.parametrize("case", ["merged_region", "interaction"])
def test_surrogate_glm_reloads_bit_identically(tmp_path, case):
    """The surrogate GLM's design holds its segments: saved and loaded
    like any GLM, it predicts the same from the raw frame and saves the
    same bytes again."""
    if case == "merged_region":
        ds = small_portfolio(n=3000, seed=4, freq_intercept=-0.8).dataset
        black_box = LogLinearModel(intercept=-0.8, cat_coefs={"region": [0.0, 0.0, 0.9]})
    else:
        ds, black_box = _distillation_case(n=2000, seed=6, joint=0.8)
    surrogate = build_surrogate(black_box, ds, "poisson_log")
    if case == "merged_region":
        assert surrogate.segments["region"].labels == ("north+south", "east")
    else:
        assert surrogate.report["selected"]["interactions"] == [["age", "region"]]
    assert surrogate.glm.design.binning == {v: s.rule for v, s in surrogate.segments.items()}
    path, resaved = tmp_path / "model.json", tmp_path / "resaved.json"
    save_model(surrogate.glm, path)
    model = load_model(path)
    np.testing.assert_array_equal(model.predict(ds), surrogate.predict(ds))
    save_model(model, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_bic_optimality_over_candidates():
    ds, black_box = _distillation_case(n=2000, seed=6)
    surrogate = build_surrogate(black_box, ds, "poisson_log")
    best = surrogate.report["selected"]["bic"]
    for cand in surrogate.report["candidates"]:
        assert best <= cand["bic"] + 1e-9


def test_sensitivity_report_matches_choose_k_on_the_same_pd():
    ds, black_box = _distillation_case(n=2000, seed=6)
    report = build_surrogate(black_box, ds, "poisson_log").report
    assert list(report["penalty_sensitivity"]) == list(ds.feature_names)
    for variable, by_penalty in report["penalty_sensitivity"].items():
        grid = default_pd_grid(ds, variable)
        values = partial_dependence(black_box, ds, variable, grid).values
        weights = _grid_weights(ds, variable, grid)
        if variable in ds.categorical_names:
            order = np.argsort(values, kind="stable")
            values, weights = values[order], weights[order]
        assert by_penalty == {lam: choose_k(values, weights, K_MAX, lam) for lam in PENALTY_GRID}
        assert report["segment_counts"].get(variable, 1) == choose_k(values, weights, K_MAX, PENALTY)


def test_greedy_search_selects_exactly_the_real_effects():
    # 12 variables the black box moves, more than MAX_EXHAUSTIVE, so the
    # search is greedy; the claims respond to the first 4 only
    names = [f"x{i}" for i in range(12)]
    spec = PortfolioSpec(
        n=4000,
        categorical={name: {"a": 0.5, "b": 0.5} for name in names},
        freq_intercept=-1.0,
        freq_coefs={name: {"b": 0.6} for name in names[:4]},
        exposure_range=(1.0, 1.0),
    )
    ds = generate_synthetic_portfolio(spec, seed=3).dataset
    black_box = LogLinearModel(intercept=-1.0, cat_coefs={name: [0.0, 0.6] for name in names})
    report = build_surrogate(black_box, ds, "poisson_log").report
    assert len(report["segment_counts"]) == 12 > MAX_EXHAUSTIVE
    assert sorted(report["selected"]["mains"]) == names[:4]
    assert report["selected"]["interactions"] == []
    assert all(report["selected"]["bic"] <= cand["bic"] for cand in report["candidates"])
