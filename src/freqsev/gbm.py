"""Gradient-boosted regression trees for Poisson and gamma deviance.

Fixed hyperparameters follow the benchmark setup: shrinkage 0.01, bagging
fraction 0.75, minimum node size 0.75% of the training rows. The tuned
parameters are the number of trees and the tree depth.

Each fit cuts every continuous feature of its own training frame into at
most MAX_BINS quantile bins; with at most MAX_BINS distinct values the
cuts are the midpoints an exact search would try. Trees grow level by
level from histograms of bag count and gradient per node and bin.
Categorical splits order levels by the mean gradient inside the node and
route levels absent from the node to the majority child. A tree is flat
arrays over its nodes. Prediction walks each distinct binned row once,
moving blocks of trees' (tree, row) pairs down a level at a time, and
adds leaf values tree after tree: each row gets a per-tree walk's sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._rand import substream
from .data import Dataset, FoldPlan
from .evaluation import get_family

SHRINKAGE = 0.01
BAGGING_FRACTION = 0.75
MIN_NODE_SHARE = 0.0075
MAX_BINS = 255

PAPER_TREE_GRID = (100, 300, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000)
PAPER_DEPTH_GRID = tuple(range(1, 11))
DESK_TREE_GRID = (50, 100, 200, 400)
DESK_DEPTH_GRID = (1, 2, 3, 4, 5)
_JSON_KEYS = (
    "family", "f0", "shrinkage", "n_trees", "depth", "seed", "train_fold", "features", "tuned"
)


class GbmError(ValueError):
    pass


class Tree(NamedTuple):
    feature: np.ndarray  # split feature per node, -1 at a leaf
    left: np.ndarray  # (nodes, width) bool: does this bin or level go left
    child: np.ndarray  # left child, the right one follows; a leaf is its own left child
    value: np.ndarray  # log-scale leaf value, 0 at split nodes


def _cuts(x: np.ndarray) -> np.ndarray:
    values, counts = np.unique(x, return_counts=True)
    if len(values) > MAX_BINS:
        # the last value at or below each equal-count quantile
        targets = np.arange(1, MAX_BINS) * (len(x) / MAX_BINS)
        keep = np.searchsorted(np.cumsum(counts), targets)
        keep = np.unique(np.minimum(keep, len(values) - 2))
        return (values[keep] + values[keep + 1]) / 2.0
    return (values[:-1] + values[1:]) / 2.0


def _descend(node, rows, offset, right, left, codes):
    """Move each (node, row) pair one level down; pairs at a leaf stay there.

    `codes` is the feature-major (features, rows) code matrix, `rows` each
    pair's column in it and `offset` where each node's split feature
    starts in it, raveled; `right` is each node's right child, which for
    a leaf is its own index + 1."""
    code = codes.take(offset.take(node) + rows)
    return right.take(node) - left.take(node * left.shape[1] + code)


class _Layout:
    """The histogram's bin axis: every feature's bins or levels, end to end."""

    def __init__(self, size, categorical):
        self.end = np.cumsum(size)
        self.width = max(size)  # of a go-left table
        self.start = self.end - size
        self.owner = np.repeat(np.arange(len(size)), size)  # the feature of each bin
        self.first = self.start[self.owner]  # the first bin of each bin's feature
        self.categorical = categorical[self.owner]  # per bin
        self.cat_bins = np.flatnonzero(self.categorical)


def _best_splits(counts, sums, layout, min_count):
    """Best split of each node from its histograms of bag count and
    gradient over the bin axis: the feature (-1 for none) and its go-left
    row over that feature's bins or levels."""
    m, n_bins = counts.shape
    rows = np.arange(m)[:, None]
    first = layout.first
    absent = counts == 0
    position = np.arange(n_bins)[None].repeat(m, 0)  # of each bin in split order
    cat = layout.cat_bins
    if len(cat):
        # a categorical feature's levels split in order of mean gradient
        c, s = counts[:, cat], sums[:, cat]
        mean = np.divide(s, c, out=np.full(c.shape, np.inf), where=c > 0)
        order = np.lexsort((mean, first[cat][None].repeat(m, 0)), axis=-1)
        counts, sums = counts.copy(), sums.copy()
        counts[:, cat], sums[:, cat] = c[rows, order], s[rows, order]
        position[rows, cat[order]] = cat
    cn = np.zeros((m, n_bins + 1))
    cs = np.zeros((m, n_bins + 1))
    np.cumsum(counts, axis=1, out=cn[:, 1:])
    np.cumsum(sums, axis=1, out=cs[:, 1:])
    n, total = cn[:, layout.end[:1]], cs[:, layout.end[:1]]
    nl, sl = cn[:, 1:] - cn[:, first], cs[:, 1:] - cs[:, first]
    nr, sr = n - nl, total - sl
    ok = (nl >= min_count) & (nr >= min_count)
    # squared-error gain of splitting on the mean-fitted residuals
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(ok, sl**2 / nl + sr**2 / nr - total**2 / n, -np.inf)
    best = gain.argmax(axis=1)
    at_best = rows[:, 0], best
    # levels absent from a categorical node go to the majority child
    majority_left = (nl[at_best] >= nr[at_best])[:, None]
    go_left = (position <= best[:, None]) | (absent & layout.categorical & majority_left)
    f = layout.owner[best]
    bins = layout.start[f][:, None] + np.arange(layout.width)
    valid = bins < layout.end[f][:, None]
    return np.where(gain[at_best] > 0, f, -1), valid & go_left[rows, np.where(valid, bins, 0)]


def _grow(codes, keys, layout, grad, count, depth, min_count):
    """Grow one tree level by level on the rows with positive `count`.

    Returns the tree without leaf values and every row's leaf."""
    n_bins = len(layout.owner)
    # every leaf but a lone root holds at least min_count bag rows
    capacity = min(2 ** (depth + 1), 2 * max(1, int(count.sum()) // min_count)) - 1
    feature = np.full(capacity, -1)
    left = np.ones((capacity, layout.width), dtype=bool)
    child = np.arange(capacity)
    count_w, grad_w = np.tile(count, len(layout.start)), np.tile(grad, len(layout.start))
    node = np.zeros(len(count), dtype=np.intp)
    rows = np.arange(len(count))
    level = np.array([0])
    size = 1
    for _ in range(depth):
        m = len(level)
        slot = np.full(size, m)  # rows at leaves fill slot m, which is dropped
        slot[level] = np.arange(m)
        key = (keys + slot.take(node) * n_bins).ravel()
        counts = np.bincount(key, count_w, (m + 1) * n_bins)[: m * n_bins]
        sums = np.bincount(key, grad_w, (m + 1) * n_bins)[: m * n_bins]
        split_feature, go_left = _best_splits(
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
        size += 2 * k
        node = _descend(node, rows, np.maximum(feature, 0) * len(rows), child + 1, left, codes)
    return feature[:size], left[:size].copy(), child[:size], node


@dataclass
class BoostedModel:
    """Stagewise additive model on the log scale: exp(F0 + shrinkage * sum(trees))."""

    kind = "gbm"  # the tag `to_json` writes and `pipeline.load_model` reads

    family: str
    f0: float
    shrinkage: float
    trees: list[Tree] = field(default_factory=list)
    n_trees: int = 0
    depth: int = 0
    seed: int = 0
    train_fold: object = None
    features: list[str] = field(default_factory=list)
    cuts: dict[str, np.ndarray] = field(default_factory=dict)  # continuous features only
    tuned: dict | None = None

    def _codes(self, dataset: Dataset) -> np.ndarray:
        """Feature-major (features, rows) matrix: the bin of each continuous
        value, the level code of each categorical one."""
        columns = [
            np.searchsorted(self.cuts[name], dataset.columns[name], side="left")
            if name in self.cuts
            else dataset.columns[name]
            for name in self.features
        ]
        return np.stack(columns).astype(np.intp, copy=False)

    def _distinct(self, dataset: Dataset):
        """The code matrix of the distinct binned rows, and each row's index
        among them."""
        codes = self._codes(dataset)
        key = np.zeros(dataset.n, dtype=np.int64)
        for column in codes:  # dense after each feature, so the key cannot overflow
            key = key * (column.max(initial=0) + 1) + column
            _, first, key = np.unique(key, return_index=True, return_inverse=True)
        return codes[:, first], key

    def _add_trees(self, scores: np.ndarray, codes: np.ndarray, trees, n_rows: int) -> None:
        """Add each tree's shrunken output to the log scores of the rows of
        `codes`, in place and in tree order. Trees are walked in blocks of
        at most `n_rows` (tree, row) pairs."""
        u = len(scores)
        block = max(1, n_rows // max(1, u))
        rows = np.tile(np.arange(u), min(block, len(trees)))
        sizes = np.array([len(t.feature) for t in trees], dtype=np.intp)
        for start in range(0, len(trees), block):
            part, size = trees[start : start + block], sizes[start : start + block]
            root = np.cumsum(size) - size  # of each tree in the block's node arrays
            feature = np.concatenate([t.feature for t in part])
            left = np.concatenate([t.left for t in part])
            right = np.concatenate([t.child for t in part]) + np.repeat(root + 1, size)
            offset, node = np.maximum(feature, 0) * u, np.repeat(root, u)
            for _ in range(self.depth):
                node = _descend(node, rows[: len(node)], offset, right, left, codes)
            value = self.shrinkage * np.concatenate([t.value for t in part])
            for increment in value.take(node).reshape(len(part), u):
                scores += increment

    def log_scores(self, dataset: Dataset, n_trees: int | None = None) -> np.ndarray:
        codes, inverse = self._distinct(dataset)
        scores = np.full(codes.shape[1], self.f0)
        self._add_trees(scores, codes, self.trees[:n_trees], dataset.n)
        return scores.take(inverse)

    def predict(self, dataset: Dataset, n_trees: int | None = None) -> np.ndarray:
        """Strictly positive predictions; exposure not applied."""
        return np.exp(self.log_scores(dataset, n_trees))

    def to_json(self) -> str:
        d = {"kind": self.kind, **{key: getattr(self, key) for key in _JSON_KEYS}}
        d["cuts"] = {name: c.tolist() for name, c in self.cuts.items()}
        d["width"] = self.trees[0].left.shape[1] if self.trees else 0
        # each go-left table is written as its bits, row after row, in hex
        d["trees"] = [
            {"feature": t.feature.tolist(), "left": np.packbits(t.left).tobytes().hex(),
             "child": t.child.tolist(), "value": t.value.tolist()}
            for t in self.trees
        ]
        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "BoostedModel":
        d = json.loads(text)
        trees = []
        for t in d["trees"]:
            shape = (len(t["feature"]), d["width"])
            bits = np.frombuffer(bytes.fromhex(t["left"]), np.uint8)
            left = np.unpackbits(bits, count=shape[0] * shape[1])
            trees.append(Tree(np.array(t["feature"]), left.astype(bool).reshape(shape),
                              np.array(t["child"]), np.array(t["value"], dtype=float)))
        cuts = {name: np.array(c, dtype=float) for name, c in d["cuts"].items()}
        return cls(trees=trees, cuts=cuts, **{key: d[key] for key in _JSON_KEYS})


def fit_gbm(
    dataset: Dataset,
    family: str,
    n_trees: int,
    depth: int,
    seed: int = 0,
    shrinkage: float = SHRINKAGE,
    bagging_fraction: float = BAGGING_FRACTION,
    train_fold=None,
) -> BoostedModel:
    """Stagewise fit on negative-gradient targets with one-step Newton
    leaf values. Exposure enters as a log offset (Poisson); claim counts
    as weights (gamma)."""
    if n_trees < 1 or depth < 1:
        raise GbmError("n_trees and depth must be >= 1")
    if dataset.n == 0:
        raise GbmError("empty training data")
    if not dataset.feature_names:
        raise GbmError("no feature columns to split on")
    fam = get_family(family, GbmError)
    y = dataset.response
    fam.check_response(y, GbmError)
    w = fam.obs_weight(dataset)
    f0 = float(np.log(fam.mean(y, w)))

    features = dataset.feature_names
    cuts = {name: _cuts(dataset.columns[name]) for name in dataset.continuous_names}
    model = BoostedModel(family, f0, shrinkage, [], n_trees, depth, seed, train_fold,
                         features, cuts)
    size = [len(cuts[name]) + 1 if name in cuts else len(dataset.column_schema(name).levels)
            for name in features]
    layout = _Layout(size, np.array([name not in cuts for name in features], dtype=bool))
    codes = model._codes(dataset)
    keys = codes + layout.start[:, None]

    rng = substream(seed, "gbm-bagging")
    min_count = max(1, int(np.ceil(MIN_NODE_SHARE * dataset.n)))
    current = np.full(dataset.n, f0)  # log-scale score, excluding offset
    n_bag = max(1, int(round(bagging_fraction * dataset.n)))
    for _ in range(n_trees):
        if n_bag < dataset.n:
            in_bag = np.zeros(dataset.n)
            in_bag[rng.choice(dataset.n, size=n_bag, replace=False)] = 1.0
        else:
            in_bag = np.ones(dataset.n)
        pred = np.exp(current)
        grad = fam.gradient(pred, y, w) * in_bag
        hess = fam.hessian(pred, y, w) * in_bag
        feature, left, child, leaf = _grow(codes, keys, layout, grad, in_bag, depth, min_count)
        g = np.bincount(leaf, grad, len(feature))
        h = np.bincount(leaf, hess, len(feature))
        value = np.divide(g, h, out=np.zeros(len(feature)), where=h > 0)
        model.trees.append(Tree(feature, left, child, value))
        current += (shrinkage * value).take(leaf)
    return model


def _cv_deviance(dataset, fam, fold_plan, outer_fold, n_trees_grid, depth, seed):
    """Average validation deviance per n_trees value, over the inner folds."""
    losses = np.zeros(len(n_trees_grid))
    inner = fold_plan.inner_folds(outer_fold)
    for k in inner:
        train_idx = np.flatnonzero((fold_plan.outer != outer_fold) & (fold_plan.outer != k))
        model = fit_gbm(dataset.subset(train_idx), fam.name, max(n_trees_grid), depth, seed=seed)
        valid = dataset.subset(fold_plan.test_rows(k))
        codes, inverse = model._distinct(valid)
        scores = np.full(codes.shape[1], model.f0)
        done = 0
        for i, n_trees in enumerate(n_trees_grid):
            model._add_trees(scores, codes, model.trees[done:n_trees], valid.n)
            losses[i] += fam.deviance(np.exp(scores.take(inverse)), valid)
            done = n_trees
    return losses / len(inner)


def tune_gbm(
    dataset: Dataset,
    family: str,
    fold_plan: FoldPlan,
    outer_fold: int,
    n_trees_grid=DESK_TREE_GRID,
    depth_grid=DESK_DEPTH_GRID,
    seed: int = 0,
) -> tuple[int, int]:
    """Minimize inner 5-fold cross-validation deviance over the grid.

    Trees are grown once per depth at the largest grid value and evaluated
    at every prefix, so the n_trees axis costs one fit."""
    if not n_trees_grid or not depth_grid:
        raise GbmError("empty tuning grid")
    fam = get_family(family, GbmError)
    n_trees_grid = tuple(sorted(n_trees_grid))
    best = None
    for depth in depth_grid:
        losses = _cv_deviance(dataset, fam, fold_plan, outer_fold, n_trees_grid, depth, seed)
        for n_trees, loss in zip(n_trees_grid, losses):
            if best is None or loss < best[0]:
                best = (loss, n_trees, depth)
    return best[1], best[2]
