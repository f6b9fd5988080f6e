"""Deviance-boosted trees: fitting, prediction, tuning, serialization."""

import multiprocessing
import warnings
from dataclasses import replace

import numpy as np
import pytest

from freqsev import _workers, gbm
from freqsev._rand import substream
from freqsev.data import (
    ColumnSchema, DataError, Dataset, FoldPlan, severity_view, stratified_folds
)
from freqsev.evaluation import get_family, poisson_deviance
from freqsev.gbm import (
    MAX_BINS, SHRINKAGE, BoostedModel, Forest, GbmError, fit_gbm, tune_gbm
)

from conftest import small_portfolio


def _trees(forest):
    """Each tree of `forest` as `(feature, left, child, value)`, sliced at
    its `bounds`, its nodes numbered from 0 and `child` each left child."""
    return [(forest.feature[a:b], forest.left[a:b], forest.right[a:b] - (a + 1), forest.value[a:b])
            for a, b in zip(forest.bounds[:-1], forest.bounds[1:])]


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
        poisson_deviance(prefix.predict(ds), ds.response, ds.exposure)
        for prefix in (replace(model, trees=model.trees[:t]) for t in (1, 50, 150))
    ]
    assert losses[0] >= losses[1] >= losses[2]


def test_depth1_recovers_step_cut():
    rng = np.random.default_rng(2)
    x = rng.uniform(20.0, 60.0, 3000)
    y = rng.poisson(np.where(x < 40.0, 0.05, 0.20)).astype(float)
    ds = _simple_dataset(x, y)
    model = fit_gbm(ds, "poisson_log", n_trees=1, depth=1, seed=0, bagging_fraction=1.0)
    feature, left, _, _ = _trees(model.trees)[0]
    assert feature[0] == 0  # the root splits on x
    threshold = model.cuts["x"][np.flatnonzero(left[0])[-1]]
    assert abs(threshold - 40.0) < 3.0


def test_deep_trees_stop_at_min_node_size():
    p = small_portfolio(n=300, seed=4)
    model = fit_gbm(p.dataset, "poisson_log", n_trees=3, depth=60, seed=0, shrinkage=0.5)
    min_count = int(np.ceil(0.0075 * 300))
    for feature, *_ in _trees(model.trees):
        assert len(feature) <= 2 * (225 // min_count) - 1
    assert np.all(np.isfinite(model.predict(p.dataset)))


def test_bagging_reproducible():
    p = small_portfolio(n=700, seed=5)
    a = fit_gbm(p.dataset, "poisson_log", n_trees=20, depth=2, seed=9)
    b = fit_gbm(p.dataset, "poisson_log", n_trees=20, depth=2, seed=9)
    assert a.to_dict() == b.to_dict()


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
    clone = BoostedModel.from_dict(model.to_dict())
    np.testing.assert_array_equal(clone.predict(p.dataset), model.predict(p.dataset))
    assert clone.tuned == model.tuned
    assert clone.to_dict() == model.to_dict()


def test_tune_single_point_and_membership():
    p = small_portfolio(n=600, seed=8)
    plan = stratified_folds(p.dataset, seed=1)
    pair, grid = tune_gbm(p.dataset, "poisson_log", plan, 0, n_trees_grid=(10,), depth_grid=(2,))
    assert pair == (10, 2)
    assert [(e["n_trees"], e["depth"]) for e in grid] == [(10, 2)]
    pair, grid = tune_gbm(
        p.dataset, "poisson_log", plan, 0, n_trees_grid=(15, 5), depth_grid=(2, 1)
    )
    assert pair[0] in (5, 15) and pair[1] in (1, 2)
    assert [(e["n_trees"], e["depth"]) for e in grid] == [(5, 2), (15, 2), (5, 1), (15, 1)]


def reference_cv_deviance(dataset, family, fold_plan, outer_fold, n_trees_grid, depth_grid, seed):
    """The loss grid as one `fit_gbm` per depth and inner fold, the
    validation rows scored through each fit's stored trees at every
    prefix: rows in the order of `depth_grid`, tree counts ascending."""
    fam = get_family(family)
    trees = sorted(n_trees_grid)
    inner = fold_plan.inner_folds(outer_fold)
    grid = []
    for depth in depth_grid:
        losses = np.zeros(len(trees))
        for k in inner:
            train_idx = fold_plan.inner_train_rows(outer_fold, k)
            model = fit_gbm(dataset.subset(train_idx), family, max(trees), depth, seed=seed)
            valid = dataset.subset(fold_plan.test_rows(k))
            codes, inverse = gbm._distinct(model._codes(valid))
            scores = np.full(codes.shape[1], model.f0)
            done = 0
            for i, n_trees in enumerate(trees):
                model._add_trees(scores, codes, model.trees[done:n_trees], valid.n)
                losses[i] += fam.deviance(np.exp(scores.take(inverse)), valid)
                done = n_trees
        grid.append(losses / len(inner))
    return np.array(grid)


def _unpicklable(self, protocol):
    raise TypeError("a Dataset was pickled")


@pytest.mark.parametrize("frame, depth_grid", [
    ("frequency", (1, 2, 3, 4, 5)),
    ("severity", (1, 2, 3, 4, 5)),
    ("frequency", (3, 1, 3)),
])
def test_tune_grid_equals_one_fit_per_depth(frame, depth_grid, monkeypatch):
    """Growing the depths as one forest and scoring the validation rows
    inside it ends on the bits of one fit per depth and inner fold, with
    the inner folds in forked workers, which read the dataset they
    inherited, and in this process."""
    monkeypatch.setattr(Dataset, "__reduce_ex__", _unpicklable)
    p = small_portfolio(n=900, seed=15)
    family, ds = "poisson_log", p.dataset
    if frame == "severity":
        family, ds = "gamma_log", severity_view(p.dataset, p.claims)
    plan = stratified_folds(ds, seed=2)
    if frame == "severity":
        assert len({len(plan.inner_train_rows(0, k)) for k in plan.inner_folds(0)}) > 1
    trees = (20, 5, 12)
    expected = reference_cv_deviance(ds, family, plan, 0, trees, depth_grid, seed=3)
    for cpus in (2, 1):  # forked workers, then this process
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        (n_trees, depth), grid = tune_gbm(ds, family, plan, 0, trees, depth_grid, seed=3)
        losses = np.array([e["inner_deviance"] for e in grid]).reshape(expected.shape)
        np.testing.assert_array_equal(losses, expected)
        cells = [(e["n_trees"], e["depth"]) for e in grid]
        assert cells == [(t, d) for d in depth_grid for t in sorted(trees)]
        assert (n_trees, depth) == cells[int(np.argmin(losses.ravel()))]


def test_tune_with_more_validation_than_training_rows(monkeypatch):
    """A loaded fold plan may give an inner fold more validation rows than
    training rows; they are extra rows of the fold's workspace, and the
    grid still equals one fit per depth and inner fold, to the bit."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    ds = small_portfolio(n=900, seed=15).dataset
    outer = np.random.default_rng(4).choice(6, ds.n, p=[0.1, 0.6, 0.075, 0.075, 0.075, 0.075])
    plan = FoldPlan(outer, 6, np.zeros(ds.n, dtype=np.int64), 0)
    assert len(plan.test_rows(1)) > len(plan.inner_train_rows(0, 1))
    expected = reference_cv_deviance(ds, "poisson_log", plan, 0, (20, 5), (3, 1), seed=3)
    _, grid = tune_gbm(ds, "poisson_log", plan, 0, (20, 5), (3, 1), seed=3)
    losses = np.array([e["inner_deviance"] for e in grid]).reshape(expected.shape)
    np.testing.assert_array_equal(losses, expected)


def test_a_deep_root_that_stops_early_leaves_the_others_growing():
    """A depth-3 root with no gradient never splits; the depth-1 root
    beside it grows the tree it grows alone, numbered after both roots.
    Every row is in the bag and reads its leaf through its code cell."""
    ds = small_portfolio(n=600, seed=1).dataset
    model = gbm._start(ds, "poisson_log", 1, 3, 0, 0.01)
    size = [len(model.cuts[name]) + 1 if name in model.cuts
            else len(ds.column_schema(name).levels) for name in model.features]
    layout = gbm._Layout(size, np.array([name not in model.cuts for name in model.features]))
    codes = model._codes(ds)
    keys = codes + layout.start[:, None]
    cell_codes, cells = gbm._distinct(codes)
    n_cells = cell_codes.shape[1]
    assert n_cells < ds.n
    grad = ds.response - ds.exposure * np.exp(model.f0)
    feature, _, _, leaf = gbm._grow(cell_codes, keys, cells, layout,
                                    np.stack([np.zeros(ds.n), grad]), (3, 1), 5,
                                    gbm._Workspace(2, len(keys), n_cells, ds.n))
    leaf = leaf.take(cells, axis=1).ravel()  # each row's leaf, root-major
    alone, _, _, alone_leaf = gbm._grow(cell_codes, keys, cells, layout, grad[None], (1,), 5,
                                        gbm._Workspace(1, len(keys), n_cells, ds.n))
    alone_leaf = alone_leaf.take(cells, axis=1).ravel()
    assert feature[0] == -1 and alone[0] >= 0
    np.testing.assert_array_equal(feature[1:], alone)
    assert np.all(leaf[: ds.n] == 0)
    np.testing.assert_array_equal(leaf[ds.n :], alone_leaf + 1)


# -- reference: the allocating grower the workspace replaced ----------------


def _ref_descend(node, rows, offset, right, left, codes):
    code = codes.take(offset.take(node) + rows)
    return right.take(node) - left.take(node * left.shape[1] + code)


def _ref_grow(codes, keys, layout, grad, count, depths, min_count):
    """Histograms of every row, out-of-bag rows at count and gradient 0;
    fresh arrays at every level."""
    n_roots, n = grad.shape
    n_bins = len(layout.owner)
    most = 2 * max(1, int(count.sum()) // min_count)
    capacity = sum(min(2 ** (d + 1), most) - 1 for d in depths)
    feature = np.full(capacity, -1)
    left = np.ones((capacity, layout.width), dtype=bool)
    child = np.arange(capacity)
    root = np.zeros(capacity, dtype=np.intp)
    root[:n_roots] = np.arange(n_roots)
    count_w = np.tile(count, n_roots * len(layout.start))
    grad_w = np.repeat(grad, len(layout.start), axis=0).ravel()
    node = np.repeat(np.arange(n_roots), n)
    rows = np.tile(np.arange(n), n_roots)
    level = np.arange(n_roots)
    size = n_roots
    for d in range(depths[0]):
        growing = sum(limit > d for limit in depths)
        if growing < n_roots:
            level = level[root.take(level) < growing]
        m = len(level)
        pairs = growing * n
        slot = np.full(size, m)
        slot[level] = np.arange(m)
        key = (keys + (slot.take(node[:pairs]) * n_bins).reshape(growing, 1, n)).ravel()
        counts = np.bincount(key, count_w[: len(key)], (m + 1) * n_bins)[: m * n_bins]
        sums = np.bincount(key, grad_w[: len(key)], (m + 1) * n_bins)[: m * n_bins]
        split_feature, go_left = gbm._best_splits(
            counts.reshape(m, n_bins), sums.reshape(m, n_bins), layout, min_count
        )
        split = split_feature >= 0
        k = int(split.sum())
        if k == 0:
            break
        parents = level[split]
        feature[parents] = split_feature[split]
        left[parents] = go_left[split]
        child[parents] = size + 2 * np.arange(k)
        level = np.arange(size, size + 2 * k)
        root[level] = root.take(parents).repeat(2)
        size += 2 * k
        offset = np.maximum(feature, 0) * n
        node[:pairs] = _ref_descend(node[:pairs], rows[:pairs], offset, child + 1, left, codes)
    return feature[:size], left[:size].copy(), child[:size], node


def _ref_boost(model, dataset, depths, bagging_fraction):
    """Every round's node arrays, bag and scores after it."""
    fam = get_family(model.family)
    y, w = dataset.response, fam.obs_weight(dataset)
    size = [len(model.cuts[name]) + 1 if name in model.cuts
            else len(dataset.column_schema(name).levels) for name in model.features]
    layout = gbm._Layout(size, np.array([name not in model.cuts for name in model.features]))
    codes = model._codes(dataset)
    keys = codes + layout.start[:, None]
    rng = substream(model.seed, "gbm-bagging")
    min_count = max(1, int(np.ceil(gbm.MIN_NODE_SHARE * dataset.n)))
    current = np.full((len(depths), dataset.n), model.f0)
    n_bag = max(1, int(round(bagging_fraction * dataset.n)))
    rounds, bags, scores = [], [], []
    for _ in range(model.n_trees):
        if n_bag < dataset.n:
            in_bag = np.zeros(dataset.n)
            in_bag[rng.choice(dataset.n, size=n_bag, replace=False)] = 1.0
        else:
            in_bag = np.ones(dataset.n)
        pred = np.exp(current)
        grad = fam.gradient(pred, y, w) * in_bag
        hess = fam.hessian(pred, y, w) * in_bag
        feature, left, child, leaf = _ref_grow(codes, keys, layout, grad, in_bag, depths,
                                               min_count)
        g = np.bincount(leaf, grad.ravel(), len(feature))
        h = np.bincount(leaf, hess.ravel(), len(feature))
        value = np.divide(g, h, out=np.zeros(len(feature)), where=h > 0)
        current += (model.shrinkage * value).take(leaf).reshape(current.shape)
        rounds.append((feature, left, child, value))
        bags.append(in_bag > 0)
        scores.append(current.copy())
    return rounds, bags, scores


@pytest.mark.parametrize("depths", [(5, 4, 3, 2, 1), (3, 3, 1)])
@pytest.mark.parametrize("bagging", [0.75, 1.0])
@pytest.mark.parametrize(
    "frame", ["frequency", "severity", "absent level", "all distinct", "unseen cells"]
)
def test_grower_matches_allocating_reference(frame, bagging, depths):
    """Growing on the bag's rows in one workspace, with trees descending
    code cells, ends on the bits of the allocating grower over every row:
    each round's node arrays, and the scores of the frame itself passed as
    validation rows, also in rounds whose bag holds no row of a level and
    on a frame whose every row is a cell of its own. Validation rows in
    cells that no training row holds score as the forest grown so far
    predicts them."""
    p = small_portfolio(n=700, seed=21)
    family, ds = "poisson_log", p.dataset
    if frame == "severity":
        family, ds = "gamma_log", severity_view(p.dataset, p.claims)
    if frame == "absent level":  # one row of region 2
        region = np.minimum(ds.columns["region"], 1)
        region[17] = 2
        ds = ds.with_column("region", region)
    if frame == "all distinct":  # rows in one age bin fall in x bins 11 values apart
        rank = np.argsort(np.argsort(ds.columns["age"]))
        schema = (*ds.schema, ColumnSchema("x", "continuous"))
        ds = Dataset(schema, dict(ds.columns, x=(rank * 11 % ds.n).astype(float)))
    if frame == "unseen cells":  # no training row is in region 2
        region = ds.columns["region"]
        ds, unseen = ds.subset(np.flatnonzero(region != 2)), ds.subset(np.flatnonzero(region == 2))
    model = gbm._start(ds, family, 30, depths[0], seed=5, shrinkage=0.1)
    if frame == "all distinct":
        assert len(model.cuts["x"]) == MAX_BINS - 1
        assert gbm._distinct(model._codes(ds))[0].shape[1] == ds.n
    rounds, bags, scores = _ref_boost(model, ds, depths, bagging)
    if frame == "absent level" and bagging < 1.0:
        assert not all(bag[17] for bag in bags)
    boost = gbm._boost(model, ds, ds, depths, bagging)
    for t, ((nodes, current, cells), expected, want) in enumerate(
        zip(boost, rounds, scores, strict=True)
    ):
        valid = current.take(cells, axis=1)  # each validation row's score, by its cell
        for got, part in zip(nodes, expected):
            np.testing.assert_array_equal(got, part, err_msg=f"round {t}")
        np.testing.assert_array_equal(valid, want, err_msg=f"round {t}")
    if frame == "unseen cells":
        _assert_unseen_cells_score_as_grown(model, ds, unseen, depths, bagging)


def _assert_unseen_cells_score_as_grown(model, ds, unseen, depths, bagging):
    """In every round, the scores of `unseen`'s rows, each read through
    its cell, equal `log_scores` of the forest of each depth grown so far:
    with every depth in one workspace, and with each depth alone."""
    together = gbm._boost(model, ds, unseen, depths, bagging)
    alone = [gbm._boost(replace(model, depth=d), ds, unseen, (d,), bagging) for d in depths]
    grown = [[] for _ in depths]
    for t, ((_, current, cells), *each) in enumerate(zip(together, *alone, strict=True)):
        for r, (nodes, alone_current, alone_cells) in enumerate(each):
            grown[r].append(nodes)
            forest = replace(model, depth=depths[r], trees=Forest.join(grown[r]))
            expected = forest.log_scores(unseen)
            np.testing.assert_array_equal(current[r].take(cells), expected, err_msg=f"round {t}")
            np.testing.assert_array_equal(alone_current[0].take(alone_cells), expected,
                                          err_msg=f"round {t}")


@pytest.mark.parametrize("grids", [
    ((-5, 10), (1, 2)), ((0, 10), (1, 2)), ((10,), (0,)), ((10.0,), (1,)), ((10,), (2, -1)),
])
def test_tune_rejects_grid_values_that_are_not_positive_integers(grids, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started before the grid was checked")

    monkeypatch.setattr(gbm, "_start", no_fit)
    p = small_portfolio(n=300, seed=8)
    plan = stratified_folds(p.dataset, seed=1)
    with pytest.raises(GbmError, match="positive integers"):
        tune_gbm(p.dataset, "poisson_log", plan, 0, *grids)


def test_tune_memory_does_not_grow_with_the_tree_count():
    """No tuning tree is kept: the peak of one inner fold, which grows the
    depths of `tune_gbm`'s grid as `tune_gbm` does, is the same at 50
    trees and 400. tracemalloc sees this process only, so the fold runs in it."""
    import tracemalloc

    p = small_portfolio(n=1500, seed=16)
    plan = stratified_folds(p.dataset, seed=1)
    k = plan.inner_folds(0)[0]
    peaks = []
    for trees in ((50,), (50, 400)):
        tracemalloc.start()
        try:
            gbm._inner_fold_losses(p.dataset, "poisson_log", plan, 0, trees, [5, 4, 3, 2, 1], 0, k)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("cpus", [2, 1], ids=["pooled", "in_process"])
def test_lowest_failing_inner_fold_is_raised_after_its_warnings(monkeypatch, cpus):
    """Inner folds in forked workers or in this process: a warning every
    fold raises is shown once under the default filter, and when folds 2
    and 4 fail, fold 2's error is raised after the warnings up to it; no
    child process is left."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    p = small_portfolio(n=600, seed=8)
    plan = stratified_folds(p.dataset, seed=1)
    assert plan.inner_folds(0)[:2] == [1, 2]
    real, failing = gbm._inner_fold_losses, []

    def inner_fold_losses(*args):
        k = args[-1]
        warnings.warn("the same warning in every inner fold")
        if k in failing:
            warnings.warn(f"inner fold {k} is about to fail")
            raise GbmError(f"no forest on inner fold {k}")
        return real(*args)

    monkeypatch.setattr(gbm, "_inner_fold_losses", inner_fold_losses)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("default")
        tune_gbm(p.dataset, "poisson_log", plan, 0, (5,), (1, 2))
    assert [str(w.message) for w in record] == ["the same warning in every inner fold"]
    assert multiprocessing.active_children() == []

    failing.extend([2, 4])
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(GbmError, match=r"^no forest on inner fold 2$"):
            tune_gbm(p.dataset, "poisson_log", plan, 0, (5,), (1, 2))
    assert [str(w.message) for w in record] == [
        "the same warning in every inner fold", "the same warning in every inner fold",
        "inner fold 2 is about to fail"]
    assert {w.filename for w in record} == {__file__}
    assert multiprocessing.active_children() == []


def test_rejects_bad_inputs():
    ds = _simple_dataset([1.0], [1.0])
    with pytest.raises(GbmError):
        fit_gbm(ds, "poisson_log", n_trees=0, depth=1)
    with pytest.raises(GbmError):
        fit_gbm(ds, "unknown", n_trees=1, depth=1)
    for fraction in (1.5, 0.0, -1.0, float("nan")):
        with pytest.raises(GbmError, match="bagging_fraction"):
            fit_gbm(ds, "poisson_log", n_trees=1, depth=1, bagging_fraction=fraction)


def _route(model, tree, values):
    """One row's leaf value, walking the tree on raw values and thresholds."""
    feature, left, child, value = tree
    node = 0
    while feature[node] >= 0:
        name = model.features[feature[node]]
        if name in model.cuts:
            go_left = values[name] <= model.cuts[name][np.flatnonzero(left[node])[-1]]
        else:
            go_left = left[node][int(values[name])]
        node = child[node] + (0 if go_left else 1)
    return value[node]


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
    left = _trees(model.trees)[0][1]
    np.testing.assert_array_equal(model.cuts["x"], (values[:-1] + values[1:]) / 2.0)
    assert model.cuts["x"][np.flatnonzero(left[0])[-1]] == best[1]


def test_thresholds_are_stored_cuts_beyond_max_bins():
    p = small_portfolio(n=1200, seed=12)
    ds = p.dataset
    assert len(np.unique(ds.columns["age"])) > MAX_BINS
    model = fit_gbm(ds, "poisson_log", n_trees=8, depth=3, seed=0, shrinkage=0.1)
    cuts = model.cuts["age"]
    assert len(cuts) < MAX_BINS and np.all(np.diff(cuts) > 0)
    age = model.features.index("age")
    trees = _trees(model.trees)
    for feature, left, _, _ in trees:
        for node in np.flatnonzero(feature == age):
            j = np.flatnonzero(left[node])[-1]
            assert j < len(cuts)
            np.testing.assert_array_equal(left[node], np.arange(left.shape[1]) <= j)
    rows = [{name: ds.columns[name][i] for name in model.features} for i in range(ds.n)]
    reference = [
        model.f0 + sum(model.shrinkage * _route(model, tree, r) for tree in trees) for r in rows
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
    feature, left, child, _ = _trees(model.trees)[0]
    assert model.features[feature[0]] == "x"
    low = child[0]  # the x < 0 child
    assert model.features[feature[low]] == "g"
    levels_left = left[low][:2]
    assert levels_left[0] != levels_left[1]
    in_node = g[x <= model.cuts["x"][np.flatnonzero(left[0])[-1]]]
    assert not np.any(in_node == 2)
    n_left = np.sum(levels_left[in_node])
    assert left[low][2] == (n_left >= len(in_node) - n_left)


def _reference_log_scores(model, dataset):
    """Every row through every tree, one tree after another: the plain walk."""
    codes = np.stack([
        np.searchsorted(model.cuts[name], dataset.columns[name], side="left")
        if name in model.cuts else dataset.columns[name]
        for name in model.features
    ])
    rows = np.arange(dataset.n)
    scores = np.full(dataset.n, model.f0)
    for feature, left, child, value in _trees(model.trees):
        node = np.zeros(dataset.n, dtype=np.intp)
        for _ in range(model.depth):
            go_left = left[node, codes[np.maximum(feature[node], 0), rows]]
            node = np.where(go_left, child[node], child[node] + 1)
        scores += model.shrinkage * value[node]
    return scores


def _uniform_model(n_trees, depth):
    """A model on three uniform continuous features, each cut into
    MAX_BINS bins, and a function from a (rows, 3) code matrix to a frame
    whose rows fall in those bins."""
    rng = np.random.default_rng(14)
    names = ("x1", "x2", "x3")
    schema = tuple(ColumnSchema(name, "continuous") for name in names) + (
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    )
    m = 2000
    train = {name: rng.uniform(0.0, 1.0, m) for name in names}
    train.update(exposure=np.ones(m), claims=rng.poisson(0.3, m).astype(float))
    model = fit_gbm(Dataset(schema, train), "poisson_log", n_trees=n_trees, depth=depth, seed=0)
    assert all(len(model.cuts[name]) == MAX_BINS - 1 for name in names)

    def frame(codes):
        columns = {name: np.append(model.cuts[name], model.cuts[name][-1] + 1.0)[code]
                   for name, code in zip(names, codes.T)}
        columns.update(exposure=np.ones(len(codes)), claims=np.zeros(len(codes)))
        return Dataset(schema, columns)

    return model, frame


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_log_scores_match_per_tree_reference(depth, monkeypatch):
    """Walking each distinct binned row or new grid cell once, trees in
    blocks, ends on the same bits as walking every row through every tree:
    in one block, in several blocks of several trees, in one-tree blocks
    and, for a few distinct rows, by a cumulative sum over each block. A
    second call on the same frame reads the memo and walks no tree. A
    prefix of the trees is a model of its own and predicts the same way."""
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
    _, first = np.unique(gbm._distinct(model._codes(p.dataset))[1], return_index=True)
    uniform, coded = _uniform_model(60, depth)
    i = np.arange(70_000)
    codes = np.column_stack((i % MAX_BINS, i // MAX_BINS % MAX_BINS, i // MAX_BINS**2))
    cases = {  # name: (model, frame, blocks walked by all 60 trees)
        "portfolio": (model, p.dataset, 1),  # many duplicate binned rows
        "unrepeated": (model, p.dataset.subset(np.sort(first)), 1),
        "distinct": (model, grid, 1),
        "repeated": (model, grid.subset(np.tile(np.arange(100), 7)), 1),
        "pinned": (model, p.dataset.with_column("age", np.full(p.dataset.n, cuts[40])), 1),
        "one row": (model, p.dataset.subset([5]), 1),
        "no rows": (model, p.dataset.subset(np.array([], dtype=np.intp)), 0),
        "several blocks": (uniform, coded(codes[np.repeat(np.arange(5000), 2)]), 5),
        "one-tree blocks": (uniform, coded(codes), 60),
    }
    # 5,000 distinct rows walk 2**16 // 5,000 = 13 trees a block
    assert gbm._SCRATCH // 5000 == 13
    descents, descend = [], gbm._descend

    def counted_descend(*args):
        descents.append(1)
        return descend(*args)

    monkeypatch.setattr(gbm, "_descend", counted_descend)
    for name, (fitted, frame, blocks) in cases.items():
        m = BoostedModel.from_dict(fitted.to_dict())  # an empty memo
        for n_trees in (None, 50, 1):
            descents.clear()
            prefix = replace(m, trees=m.trees[:n_trees])
            scores = prefix.log_scores(frame)
            np.testing.assert_array_equal(
                scores, _reference_log_scores(prefix, frame), err_msg=name
            )
            if n_trees is None:
                assert len(descents) == blocks * depth, name
                descents.clear()  # the memo serves a second call, unless the grid is too large
                np.testing.assert_array_equal(prefix.log_scores(frame), scores, err_msg=name)
                assert len(descents) == (blocks * depth if fitted is uniform else 0), name
    for name in ("pinned", "one row"):
        assert gbm._distinct(model._codes(cases[name][1]))[0].shape[1] <= gbm._CUMSUM_ROWS
    assert model.log_scores(cases["no rows"][1]).shape == (0,)


def test_forest_indexes_and_slices_as_trees():
    """A slice of the forest is a run of its trees over the same arrays,
    an integer or stepped index is refused, and the trees sliced at
    `bounds` join back into the fitted forest."""
    p = small_portfolio(n=800, seed=16)
    model = fit_gbm(p.dataset, "poisson_log", n_trees=9, depth=2, seed=0)
    forest, trees = model.trees, _trees(model.trees)
    assert len(forest) == len(trees) == 9
    joined = Forest.join(trees)
    for name in ("feature", "left", "right", "value", "bounds"):
        np.testing.assert_array_equal(getattr(joined, name), getattr(forest, name))
    assert forest[2:5].feature is forest.feature  # a run of trees shares the arrays
    assert [len(t[0]) for t in _trees(forest[2:5])] == [len(t[0]) for t in trees[2:5]]
    for x, y in zip(_trees(forest[-1:])[0], trees[8]):
        np.testing.assert_array_equal(x, y)
    assert len(forest[5:2]) == 0 and len(forest[:0]) == 0 and len(forest[9:]) == 0
    for index in (0, -1, slice(None, None, 2), slice(None, None, -4)):
        with pytest.raises(TypeError):
            forest[index]


def test_truncated_trees_predict_as_a_prefix():
    """Assigning a run of the forest, or a join of its first trees,
    predicts with those trees, never with arrays joined for the old ones;
    with no trees, a model predicts F0."""
    p = small_portfolio(n=1200, seed=15)
    model = fit_gbm(p.dataset, "poisson_log", n_trees=30, depth=3, seed=0, shrinkage=0.1)
    forest, trees = model.trees, _trees(model.trees)
    expected = {k: replace(model, trees=forest[:k]).log_scores(p.dataset) for k in (12, 5)}
    for k, truncated in ((12, forest[:12]), (5, Forest.join(trees[:5]))):
        model.trees = truncated
        assert len(model.trees) == k
        scores = model.log_scores(p.dataset)
        np.testing.assert_array_equal(scores, expected[k])
        np.testing.assert_array_equal(scores, _reference_log_scores(model, p.dataset))
    assert len(BoostedModel.from_dict(model.to_dict()).trees) == 5
    model.trees = forest[:0]
    np.testing.assert_array_equal(model.log_scores(p.dataset), np.full(p.dataset.n, model.f0))


def test_memo_and_walk_give_the_same_bits():
    """The memo of grid cells agrees with the plain walk to the bit: after
    the trees are truncated, after a reload or a pickle round trip, for a
    frame whose schema has one more level (a grid of its own), and not at
    all for a grid of 256**3 cells, which is walked each time."""
    import pickle

    p = small_portfolio(n=1500, seed=20)
    model = fit_gbm(p.dataset, "poisson_log", n_trees=40, depth=3, seed=0, shrinkage=0.1)
    frame = p.dataset
    np.testing.assert_array_equal(model.log_scores(frame), _reference_log_scores(model, frame))
    assert len(model._memo) == 1
    model.trees = model.trees[:25]
    assert model._memo == {}  # any field assignment drops the memo
    np.testing.assert_array_equal(model.log_scores(frame), _reference_log_scores(model, frame))
    reloaded = BoostedModel.from_dict(model.to_dict())
    pickled = pickle.loads(pickle.dumps(model))  # memo included
    for m in (reloaded, pickled, model):
        np.testing.assert_array_equal(m.log_scores(frame), _reference_log_scores(model, frame))
    region = frame.column_schema("region")
    schema = tuple(
        ColumnSchema(c.name, c.kind, c.levels + ("west",)) if c is region else c
        for c in frame.schema
    )
    wider = Dataset(schema, dict(frame.columns, region=np.arange(frame.n) % 4))
    np.testing.assert_array_equal(model.log_scores(wider), _reference_log_scores(model, wider))
    bins = len(model.cuts["age"]) + 1
    assert sorted(len(memo) for memo in model._memo.values()) == [
        bins * len(region.levels), bins * (len(region.levels) + 1)
    ]
    uniform, coded = _uniform_model(20, 2)
    i = np.arange(3000)
    big = coded(np.column_stack((i % MAX_BINS, i * 7 % MAX_BINS, i * 13 % MAX_BINS)))
    for _ in range(2):
        np.testing.assert_array_equal(uniform.log_scores(big), _reference_log_scores(uniform, big))
    assert uniform._memo == {}


def test_a_level_code_outside_the_schema_is_rejected():
    p = small_portfolio(n=600, seed=21)
    n_levels = len(p.dataset.column_schema("region").levels)
    for code in (n_levels, -1):
        with pytest.raises(DataError, match="region"):
            p.dataset.with_column("region", np.full(p.dataset.n, code))


def test_a_level_code_past_the_go_left_tables_is_rejected():
    """A categorical-only model's go-left tables are as wide as its widest
    feature's levels. A frame whose schema adds a level gets codes past
    them; they are refused, while the codes inside them walk as before."""
    rng = np.random.default_rng(2)
    schema = (
        ColumnSchema("region", "categorical", ("north", "south", "east")),
        ColumnSchema("cover", "categorical", ("basic", "full")),
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    )
    n = 3000
    region, cover = rng.integers(0, 3, n), rng.integers(0, 2, n)
    claims = rng.poisson(0.1 * np.exp(0.4 * (region == 1) + 0.3 * cover)).astype(float)
    train = Dataset(schema, {"region": region, "cover": cover, "exposure": np.ones(n),
                             "claims": claims})
    model = fit_gbm(train, "poisson_log", n_trees=50, depth=2, seed=2)
    assert model.trees.left.shape[1] == 3
    west = ColumnSchema("region", "categorical", ("north", "south", "east", "west"))
    wider = (west, *schema[1:])
    frame = Dataset(wider, dict(train.columns))
    np.testing.assert_array_equal(model.log_scores(frame), _reference_log_scores(model, frame))
    coded_west = Dataset(wider, dict(train.columns, region=np.where(region == 2, 3, region)))
    with pytest.raises(GbmError, match="region"):
        model.log_scores(coded_west)


def test_distinct_rows_of_a_key_that_would_overflow():
    """Ten continuous features of 255 bins each: the mixed-radix key passes
    2**62, so it is made dense on the way. The distinct rows, their order
    and each row's index equal those of densifying after every feature."""
    names = tuple(f"x{j}" for j in range(10))
    schema = tuple(ColumnSchema(name, "continuous") for name in names) + (
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    )
    rng = np.random.default_rng(18)
    prototypes = rng.integers(0, MAX_BINS, size=(400, len(names)))
    prototypes[0] = MAX_BINS - 1  # every feature reaches its last bin
    values = prototypes[rng.integers(0, len(prototypes), 3000)].astype(float)
    columns = {name: values[:, j] for j, name in enumerate(names)}
    columns.update(exposure=np.ones(len(values)), claims=np.zeros(len(values)))
    frame = Dataset(schema, columns)
    cuts = {name: np.arange(MAX_BINS - 1) + 0.5 for name in names}
    model = BoostedModel("poisson_log", 0.0, SHRINKAGE, features=list(names), cuts=cuts)
    codes = model._codes(frame)
    assert np.prod([float(c.max()) + 1 for c in codes]) > 2.0**62
    key = np.zeros(frame.n, dtype=np.int64)
    for column in codes:
        key = key * (column.max() + 1) + column
        _, first, key = np.unique(key, return_index=True, return_inverse=True)
    distinct, inverse = gbm._distinct(model._codes(frame))
    np.testing.assert_array_equal(distinct, codes[:, first])
    np.testing.assert_array_equal(inverse, key)
    np.testing.assert_array_equal(distinct.T, np.unique(values, axis=0))


@pytest.mark.parametrize("rows, radices", [
    (3000, (256, 256)),  # 2**16 keys
    (3000, (256, 257)),
    (70_000, (280, 250)),  # one key per row
    (70_000, (280, 251)),
    (1, (1, 1)),
    (0, (1, 1)),
])
def test_distinct_rows_equal_those_of_numpy_unique(rows, radices):
    """The distinct rows, their order and each row's index equal
    `np.unique`'s over the code matrix's rows. The code matrix is
    C-ordered, so `_descend`'s `take` does not copy it at every level."""
    names = ("x1", "x2")
    schema = tuple(ColumnSchema(name, "continuous") for name in names) + (
        ColumnSchema("exposure", "exposure"),
        ColumnSchema("claims", "response"),
    )
    rng = np.random.default_rng(19)
    codes = np.column_stack([rng.integers(0, radix, rows) for radix in radices])
    if rows > 1:
        codes[0] = np.array(radices) - 1  # every feature reaches its radix
    columns = {name: codes[:, j].astype(float) for j, name in enumerate(names)}
    columns.update(exposure=np.ones(rows), claims=np.zeros(rows))
    frame = Dataset(schema, columns)
    cuts = {name: np.arange(radix - 1) + 0.5 for name, radix in zip(names, radices)}
    model = BoostedModel("poisson_log", 0.0, SHRINKAGE, features=list(names), cuts=cuts)
    _, first, inverse = np.unique(codes, axis=0, return_index=True, return_inverse=True)
    distinct, index = gbm._distinct(model._codes(frame))
    np.testing.assert_array_equal(distinct, codes[first].T)
    np.testing.assert_array_equal(index, inverse.ravel())
    assert distinct.dtype == np.intp and distinct.shape == (2, len(first))
    assert distinct.flags.c_contiguous


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
