"""Deviance-boosted trees: fitting, prediction, tuning, serialization."""

import numpy as np
import pytest

from freqsev.data import ColumnSchema, Dataset, stratified_folds
from freqsev.evaluation import poisson_deviance
from freqsev.gbm import MAX_BINS, BoostedModel, GbmError, fit_gbm, tune_gbm

from conftest import small_portfolio


def _simple_dataset(x, y, e=None):
    schema = (
        ColumnSchema("x", "continuous"),
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    )
    n = len(x)
    return Dataset(
        schema,
        {
            "x": np.asarray(x, dtype=float),
            "exposure": np.ones(n) if e is None else np.asarray(e, dtype=float),
            "claims": np.asarray(y, dtype=float),
        },
    )


def test_initialization_is_weighted_mean():
    ds = _simple_dataset([1.0, 2.0, 3.0], [2.0, 0.0, 1.0], [1.0, 0.5, 1.5])
    model = fit_gbm(ds, "poisson_log", n_trees=1, depth=1, shrinkage=0.0)
    np.testing.assert_allclose(model.predict(ds), 3.0 / 3.0)
    assert model.f0 == np.log(np.sum(ds.response) / np.sum(ds.exposure))


def test_constant_response_stays_constant():
    ds = _simple_dataset(np.arange(20.0), np.full(20, 3.0))
    model = fit_gbm(ds, "poisson_log", n_trees=25, depth=2, seed=1)
    np.testing.assert_allclose(model.predict(ds), 3.0, rtol=1e-9)


def test_training_deviance_decreases():
    p = small_portfolio(n=1500, seed=3)
    ds = p.dataset
    model = fit_gbm(ds, "poisson_log", n_trees=150, depth=2, seed=0, shrinkage=0.05)
    losses = [
        poisson_deviance(model.predict(ds, t), ds.response, ds.exposure)
        for t in (1, 50, 150)
    ]
    assert losses[0] >= losses[1] >= losses[2]


def test_depth1_recovers_step_cut():
    rng = np.random.default_rng(2)
    x = rng.uniform(20.0, 60.0, 3000)
    y = rng.poisson(np.where(x < 40.0, 0.05, 0.20)).astype(float)
    ds = _simple_dataset(x, y)
    model = fit_gbm(ds, "poisson_log", n_trees=1, depth=1, seed=0, bagging_fraction=1.0)
    tree = model.trees[0]
    assert tree.feature[0] == 0  # the root splits on x
    threshold = model.cuts["x"][np.flatnonzero(tree.left[0])[-1]]
    assert abs(threshold - 40.0) < 3.0


def test_deep_trees_stop_at_min_node_size():
    p = small_portfolio(n=300, seed=4)
    model = fit_gbm(p.dataset, "poisson_log", n_trees=3, depth=60, seed=0, shrinkage=0.5)
    min_count = int(np.ceil(0.0075 * 300))
    for tree in model.trees:
        assert len(tree.feature) <= 2 * (225 // min_count) - 1
    assert np.all(np.isfinite(model.predict(p.dataset)))


def test_bagging_reproducible():
    p = small_portfolio(n=700, seed=5)
    a = fit_gbm(p.dataset, "poisson_log", n_trees=20, depth=2, seed=9)
    b = fit_gbm(p.dataset, "poisson_log", n_trees=20, depth=2, seed=9)
    assert a.to_json() == b.to_json()


def test_unseen_level_routes_to_majority_child():
    schema = (
        ColumnSchema("g", "categorical", ("a", "b", "c")),
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    )
    rng = np.random.default_rng(3)
    codes = rng.choice([0, 1], size=400).astype(np.int64)  # level "c" never seen
    y = rng.poisson(np.where(codes == 0, 0.1, 1.0)).astype(float)
    ds = Dataset(schema, {"g": codes, "exposure": np.ones(400), "claims": y})
    model = fit_gbm(ds, "poisson_log", n_trees=10, depth=1, seed=0, bagging_fraction=1.0)
    unseen = Dataset(
        schema,
        {"g": np.full(5, 2, dtype=np.int64), "exposure": np.ones(5), "claims": np.zeros(5)},
    )
    pred = model.predict(unseen)
    assert np.all(np.isfinite(pred)) and np.all(pred > 0)


def test_gamma_boosting_improves_on_mean():
    p = small_portfolio(n=2500, seed=6)
    from freqsev.data import severity_view

    sev = severity_view(p.dataset, p.claims)
    model = fit_gbm(sev, "gamma_log", n_trees=80, depth=2, seed=0, shrinkage=0.05)
    from freqsev.evaluation import gamma_deviance

    base = gamma_deviance(np.full(sev.n, np.sum(sev.weights * sev.response) / np.sum(sev.weights)),
                          sev.response, sev.weights)
    fitted = gamma_deviance(model.predict(sev), sev.response, sev.weights)
    assert fitted <= base


def test_json_roundtrip():
    p = small_portfolio(n=400, seed=7)
    model = fit_gbm(p.dataset, "poisson_log", n_trees=12, depth=3, seed=0)
    model.tuned = {"n_trees": 12, "depth": 3}
    clone = BoostedModel.from_json(model.to_json())
    np.testing.assert_array_equal(clone.predict(p.dataset), model.predict(p.dataset))
    assert clone.tuned == model.tuned
    assert clone.to_json() == model.to_json()


def test_tune_single_point_and_membership():
    p = small_portfolio(n=600, seed=8)
    plan = stratified_folds(p.dataset, seed=1)
    pair = tune_gbm(p.dataset, "poisson_log", plan, 0, n_trees_grid=(10,), depth_grid=(2,))
    assert pair == (10, 2)
    pair = tune_gbm(
        p.dataset, "poisson_log", plan, 0, n_trees_grid=(5, 15), depth_grid=(1, 2)
    )
    assert pair[0] in (5, 15) and pair[1] in (1, 2)


def test_rejects_bad_inputs():
    ds = _simple_dataset([1.0], [1.0])
    with pytest.raises(GbmError):
        fit_gbm(ds, "poisson_log", n_trees=0, depth=1)
    with pytest.raises(GbmError):
        fit_gbm(ds, "unknown", n_trees=1, depth=1)


def _route(model, tree, values):
    """One row's leaf value, walking the tree on raw values and thresholds."""
    node = 0
    while tree.feature[node] >= 0:
        name = model.features[tree.feature[node]]
        if name in model.cuts:
            go_left = values[name] <= model.cuts[name][np.flatnonzero(tree.left[node])[-1]]
        else:
            go_left = tree.left[node][int(values[name])]
        node = tree.child[node] + (0 if go_left else 1)
    return tree.value[node]


def test_depth1_split_is_best_midpoint():
    rng = np.random.default_rng(11)
    x = rng.integers(18, 80, 2000).astype(float)  # 62 distinct values
    e = rng.uniform(0.5, 1.0, 2000)
    y = rng.poisson(e * np.exp(-2.0 + 0.03 * (x - 50.0) + 0.5 * (x > 61.0))).astype(float)
    ds = _simple_dataset(x, y, e)
    model = fit_gbm(ds, "poisson_log", n_trees=1, depth=1, bagging_fraction=1.0)

    grad = y - e * np.exp(model.f0)
    min_count = int(np.ceil(0.0075 * len(x)))
    values = np.unique(x)
    best = None
    for cut in (values[:-1] + values[1:]) / 2.0:
        left = x <= cut
        nl, nr = left.sum(), (~left).sum()
        if nl < min_count or nr < min_count:
            continue
        sl, sr = grad[left].sum(), grad[~left].sum()
        gain = sl**2 / nl + sr**2 / nr - grad.sum() ** 2 / len(x)
        if best is None or gain > best[0]:
            best = (gain, cut)
    tree = model.trees[0]
    np.testing.assert_array_equal(model.cuts["x"], (values[:-1] + values[1:]) / 2.0)
    assert model.cuts["x"][np.flatnonzero(tree.left[0])[-1]] == best[1]


def test_thresholds_are_stored_cuts_beyond_max_bins():
    p = small_portfolio(n=1200, seed=12)
    ds = p.dataset
    assert len(np.unique(ds.columns["age"])) > MAX_BINS
    model = fit_gbm(ds, "poisson_log", n_trees=8, depth=3, seed=0, shrinkage=0.1)
    cuts = model.cuts["age"]
    assert len(cuts) < MAX_BINS and np.all(np.diff(cuts) > 0)
    age = model.features.index("age")
    for tree in model.trees:
        for node in np.flatnonzero(tree.feature == age):
            j = np.flatnonzero(tree.left[node])[-1]
            assert j < len(cuts)
            np.testing.assert_array_equal(tree.left[node], np.arange(tree.left.shape[1]) <= j)
    rows = [{name: ds.columns[name][i] for name in model.features} for i in range(ds.n)]
    reference = [
        model.f0 + sum(model.shrinkage * _route(model, tree, r) for tree in model.trees)
        for r in rows
    ]
    np.testing.assert_allclose(model.log_scores(ds), reference, rtol=1e-13)


def test_level_absent_from_node_goes_to_majority_child():
    schema = (
        ColumnSchema("x", "continuous"),
        ColumnSchema("g", "categorical", ("a", "b", "c")),
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    )
    rng = np.random.default_rng(4)
    n = 3000
    x = rng.uniform(-1.0, 1.0, n)
    # level "c" occurs only at x >= 0.5, so it is absent from the x < 0 child
    g = np.where(x < 0.5, rng.choice(2, n, p=[0.7, 0.3]), rng.choice(3, n))
    rate = np.where(x < 0, 0.05, 1.0) * np.where(g == 1, 3.0, 1.0)
    y = rng.poisson(rate).astype(float)
    ds = Dataset(schema, {"x": x, "g": g, "exposure": np.ones(n), "claims": y})
    model = fit_gbm(ds, "poisson_log", n_trees=1, depth=2, bagging_fraction=1.0)
    tree = model.trees[0]
    assert model.features[tree.feature[0]] == "x"
    low = tree.child[0]  # the x < 0 child
    assert model.features[tree.feature[low]] == "g"
    levels_left = tree.left[low][:2]
    assert levels_left[0] != levels_left[1]
    in_node = g[x <= model.cuts["x"][np.flatnonzero(tree.left[0])[-1]]]
    assert not np.any(in_node == 2)
    n_left = np.sum(levels_left[in_node])
    assert tree.left[low][2] == (n_left >= len(in_node) - n_left)


def _reference_log_scores(model, dataset, n_trees=None):
    """Every row through every tree, one tree after another: the plain walk."""
    codes = np.stack([
        np.searchsorted(model.cuts[name], dataset.columns[name], side="left")
        if name in model.cuts else dataset.columns[name]
        for name in model.features
    ])
    rows = np.arange(dataset.n)
    scores = np.full(dataset.n, model.f0)
    for tree in model.trees[:n_trees]:
        node = np.zeros(dataset.n, dtype=np.intp)
        for _ in range(model.depth):
            go_left = tree.left[node, codes[np.maximum(tree.feature[node], 0), rows]]
            node = np.where(go_left, tree.child[node], tree.child[node] + 1)
        scores += model.shrinkage * tree.value[node]
    return scores


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_log_scores_match_per_tree_reference(depth):
    """Walking each distinct binned row once, trees in blocks, ends on the
    same bits as walking every row through every tree."""
    p = small_portfolio(n=1500, seed=13)
    train = p.dataset.subset(np.flatnonzero(p.dataset.columns["region"] != 2))
    assert len(np.unique(train.columns["age"])) > MAX_BINS  # region 2 is unseen
    model = fit_gbm(train, "poisson_log", n_trees=60, depth=depth, seed=0, shrinkage=0.1)
    cuts = model.cuts["age"]
    # one row per bin and level: ages exactly on each cut and beyond the last
    ages = np.append(cuts, cuts[-1] + 1.0)
    grid = p.dataset.subset(np.zeros(3 * len(ages), dtype=np.intp))
    grid = grid.with_column("age", np.repeat(ages, 3))
    grid = grid.with_column("region", np.tile(np.arange(3), len(ages)))
    frames = {
        "portfolio": p.dataset,  # many duplicate binned rows
        "distinct": grid,
        "repeated": grid.subset(np.tile(np.arange(100), 7)),  # blocks of 7 trees
        "pinned": p.dataset.with_column("age", np.full(p.dataset.n, cuts[40])),
        "one row": p.dataset.subset([5]),
        "no rows": p.dataset.subset(np.array([], dtype=np.intp)),
    }
    for name, frame in frames.items():
        for n_trees in (None, 50, 1):
            scores = model.log_scores(frame, n_trees)
            np.testing.assert_array_equal(
                scores, _reference_log_scores(model, frame, n_trees), err_msg=name
            )
    assert model.log_scores(frames["no rows"]).shape == (0,)


def test_prediction_memory_is_linear_in_rows():
    """200,000 rows whose binned rows are all distinct: the walk stays
    within a bound linear in the rows that one block of 100 trees by
    200,000 rows (160 MB of leaf values alone) would break."""
    import tracemalloc

    rng = np.random.default_rng(14)
    names = ("x1", "x2", "x3")
    schema = tuple(ColumnSchema(name, "continuous") for name in names) + (
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    )
    m = 2000
    train = {name: rng.uniform(0.0, 1.0, m) for name in names}
    train.update(exposure=np.ones(m), claims=rng.poisson(0.3, m).astype(float))
    model = fit_gbm(Dataset(schema, train), "poisson_log", n_trees=100, depth=2, seed=0)
    n = 200_000
    i = np.arange(n)
    codes = (i % MAX_BINS, i // MAX_BINS % MAX_BINS, i // MAX_BINS**2)
    columns = {}
    for name, code in zip(names, codes):
        cuts = model.cuts[name]
        assert len(cuts) == MAX_BINS - 1
        columns[name] = np.append(cuts, cuts[-1] + 1.0)[code]
    columns.update(exposure=np.ones(n), claims=np.zeros(n))
    frame = Dataset(schema, columns)
    tracemalloc.start()
    try:
        model.predict(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * n, peak
