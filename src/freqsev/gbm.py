"""Gradient-boosted regression trees for Poisson and gamma deviance.

Fixed hyperparameters follow the benchmark setup: shrinkage 0.01, bagging
fraction 0.75, minimum node size 0.75% of the training rows. The tuned
parameters are the number of trees and the tree depth.

Each fit cuts every continuous feature of its own training frame into at
most MAX_BINS quantile bins; with at most MAX_BINS distinct values the
cuts are the midpoints an exact search would try. Trees grow level by
level from histograms of bag count and gradient per node and bin, which
hold the round's bag rows only, in ascending order: a row out of the bag
would add 0 to every bucket, so the sums are those over all rows. Rows
out of the bag still go down each tree to take their leaf's value. A fit
grows its trees in one `_Workspace`, allocated once from its roots,
features and rows: each round and level writes its keys, weights, nodes
and gradients into it, and what a round still allocates is the bag
draw's row indices and arrays per node.
Categorical splits order levels by the mean gradient inside the node and
route levels absent from the node to the majority child. Prediction bins
each continuous value with `data.bin_codes`, a branch-free binary search
equal to `np.searchsorted(cuts, values, side="left")`. A model keeps
its trees only as one `Forest`: flat node arrays joined once, when it is
fitted or loaded, with each tree's root offset, so a prefix of the trees
is a prefix of the roots. Prediction with every tree reads a memo of the
score per cell of the frame's code grid (bins by schema levels) of at most
2**16 cells, per process and never saved, and walks only cells not yet in
it; else it walks each distinct binned row once. A walk moves blocks of
(tree, row) pairs a level at a time, at least 2**16 pairs or one per row
of the frame, so memory stays linear in rows; each row adds trees in order.

Tuning grows, in each inner fold, one model per depth of the grid as one
forest: the models share the cuts and each round's bag, and each level is
one histogram pass and one split search over the open nodes of every model
still below its depth. The inner fold's validation rows are extra rows of
the fit's workspace, never drawn into a bag: they go down each tree in the
same descent as the training rows and take their leaf's value in the same
step, and their deviance is read at every tree count of the grid, so
tuning keeps no tree. Every loss equals that of a separate fit per depth,
to the bit. The inner folds run through `_workers.fork_map` and their
losses are added in fold order, so the grid is the same in forked workers
as in process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._rand import substream
from ._workers import fork_map
from .data import Dataset, FoldPlan, bin_codes, distinct_rows
from .evaluation import get_family

SHRINKAGE = 0.01
BAGGING_FRACTION = 0.75
MIN_NODE_SHARE = 0.0075
MAX_BINS = 255
# A strided cumulative sum over a block of trees beats a loop over them up
# to about this many rows; both add each row's values in the same order.
_CUMSUM_ROWS = 32
# Prediction's scratch arrays may hold this many elements however few rows
# a frame has; past it they grow with the rows, so memory stays linear.
_SCRATCH = 2**16

PAPER_TREE_GRID = (100, 300, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000)
PAPER_DEPTH_GRID = tuple(range(1, 11))
DESK_TREE_GRID = (50, 100, 200, 400)
DESK_DEPTH_GRID = (1, 2, 3, 4, 5)
_PAYLOAD_KEYS = (
    "family", "f0", "shrinkage", "n_trees", "depth", "seed", "train_fold", "features", "tuned"
)


class GbmError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Forest:
    """Trees joined into one set of node arrays. Tree i holds nodes
    `bounds[i]` (its root) to `bounds[i + 1]`, and `right` is each node's
    right child in forest numbering, a leaf's own index + 1. A slice of
    consecutive trees is a forest over the same arrays."""

    feature: np.ndarray  # split feature per node, -1 at a leaf
    left: np.ndarray  # (nodes, width) bool: does this bin or level go left
    right: np.ndarray
    value: np.ndarray  # log-scale leaf value, 0 at split nodes
    bounds: np.ndarray

    @classmethod
    def join(cls, trees) -> "Forest":
        """One forest of `(feature, left, child, value)` trees, in order,
        each numbering its nodes from 0 with a node's left child at
        `child` and its right one after it; a leaf is its own left child."""
        trees = list(trees)
        sizes = np.array([len(t[0]) for t in trees], dtype=np.intp)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        if not trees:
            return cls(bounds[:0], np.ones((0, 0), dtype=bool), bounds[:0], np.zeros(0), bounds)
        feature, left, child, value = (np.concatenate(part) for part in zip(*trees))
        return cls(feature, left, child + np.repeat(bounds[:-1] + 1, sizes), value, bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, trees: slice) -> "Forest":
        run = range(len(self))[trees]
        if not isinstance(run, range) or run.step != 1:
            raise TypeError("a forest takes only a slice of consecutive trees")
        return replace(self, bounds=self.bounds[run.start : run.start + len(run) + 1])


def _cuts(x: np.ndarray) -> np.ndarray:
    values, counts = np.unique(x, return_counts=True)
    if len(values) > MAX_BINS:
        # the last value at or below each equal-count quantile
        targets = np.arange(1, MAX_BINS) * (len(x) / MAX_BINS)
        keep = np.searchsorted(np.cumsum(counts), targets)
        keep = np.unique(np.minimum(keep, len(values) - 2))
        return (values[keep] + values[keep + 1]) / 2.0
    return (values[:-1] + values[1:]) / 2.0


def _scratch(pairs):
    """`_descend`'s temporaries for up to `pairs` pairs."""
    return np.empty(pairs, np.intp), np.empty(pairs, np.intp), np.empty(pairs, bool)


def _descend(node, rows, offset, right, left, codes, scratch):
    """Move each (node, row) pair one level down, in place; pairs at a
    leaf stay there.

    `codes` is the feature-major (features, rows) code matrix, `rows` each
    pair's column in it and `offset` where each node's split feature
    starts in it, raveled; `right` is each node's right child, which for
    a leaf is its own index + 1. `scratch` is from `_scratch`, for at
    least as many pairs. Every index is in range; `take` writes into `out`
    without a copy only when it may clip, here and wherever it fills a
    buffer."""
    n = len(node)
    at, code, goes = scratch[0][:n], scratch[1][:n], scratch[2][:n]
    offset.take(node, out=at, mode="clip")
    at += rows
    codes.take(at, out=code, mode="clip")  # each pair's bin or level
    np.multiply(node, left.shape[1], out=at)
    at += code
    left.take(at, out=goes, mode="clip")
    right.take(node, out=at, mode="clip")
    np.subtract(at, goes, out=node)


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
    e = layout.end[0]  # every feature's bins hold all the node's rows
    n, total = cn[:, e : e + 1], cs[:, e : e + 1]
    nl, sl = cn[:, 1:] - cn.take(first, axis=1), cs[:, 1:] - cs.take(first, axis=1)
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
    window = go_left.ravel().take(np.where(valid, bins, 0) + rows * n_bins)
    return np.where(gain[at_best] > 0, f, -1), valid & window


class _Workspace:
    """The arrays one `_boost` call grows its trees in, allocated once
    from its roots, features, rows and bag size; each round and level
    writes into them.

    `rows`, `node` and `step` hold one row per root and one entry per
    (root, row) pair, the rows in the order of `order`: the bag's rows
    ascending, then the others ascending, validation rows last. `rows`
    holds each pair's row."""

    def __init__(self, n_roots, n_features, n, n_bag):
        self.order = np.arange(n)
        self.rows = np.tile(self.order, (n_roots, 1))
        self.node = np.empty((n_roots, n), dtype=np.intp)  # each pair's node
        self.scratch = _scratch(n_roots * n)
        self.step = np.empty((n_roots, n))  # each pair's score increment
        # per (feature, bag row), then per (root, feature, bag row)
        self.keys = np.empty((n_features, n_bag), dtype=np.intp)
        self.key = np.empty(n_roots * n_features * n_bag, dtype=np.intp)
        self.weight = np.empty(n_roots * n_features * n_bag)
        # per bag row, then per (root, bag row)
        self.y, self.w = np.empty(n_bag), np.empty(n_bag)
        self.pred, self.grad, self.hess = (np.empty((n_roots, n_bag)) for _ in range(3))


def _grow(codes, keys, layout, grad, depths, min_count, ws):
    """Grow one tree per root level by level on the bag's rows, the first
    of `ws.order`; root r fits row r of the (roots, bag) `grad` and stops
    at `depths[r]`, which must not increase from root to root. `keys` is
    the (features, bag) histogram key of each bag row.

    Children are numbered after every node made before them, so the trees
    share one set of node arrays and a single root's tree is numbered as
    if it grew alone. The histograms hold the bag's rows only: a row out
    of the bag would add 0 to each bucket. Returns the node arrays without
    leaf values and `ws.node`, the leaf of every (root, row) pair."""
    n_roots, n_bag = grad.shape
    n_bins = len(layout.owner)
    # every leaf but a lone root holds at least min_count bag rows
    most = 2 * max(1, n_bag // min_count)
    capacity = sum(min(2 ** (d + 1), most) - 1 for d in depths)
    feature = np.full(capacity, -1)
    left = np.ones((capacity, layout.width), dtype=bool)
    child = np.arange(capacity)
    root = np.zeros(capacity, dtype=np.intp)  # the root of each node
    root[:n_roots] = np.arange(n_roots)
    # (root, feature, bag row) order: each (node, bin) bucket sums its rows in order
    weight = ws.weight.reshape(n_roots, -1, n_bag)
    weight[:] = grad[:, None, :]
    node, rows, n = ws.node, ws.rows, ws.node.shape[1]
    node[:] = np.arange(n_roots)[:, None]
    level = np.arange(n_roots)
    size = n_roots
    for d in range(depths[0]):
        growing = sum(limit > d for limit in depths)  # the first roots grow on
        if growing < n_roots:
            level = level[root.take(level) < growing]
        m = len(level)
        slot = np.full(size, m * n_bins)  # rows at leaves fill slot m, which is dropped
        slot[level] = np.arange(m) * n_bins
        at = ws.scratch[0][: growing * n].reshape(growing, n)
        slot.take(node[:growing], out=at, mode="clip")
        key = ws.key[: growing * keys.size]
        np.add(keys, at[:, None, :n_bag], out=key.reshape(growing, *keys.shape))
        counts = np.bincount(key, minlength=(m + 1) * n_bins)[: m * n_bins]
        sums = np.bincount(key, weight[:growing].ravel(), (m + 1) * n_bins)[: m * n_bins]
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
        root[level] = root.take(parents).repeat(2)
        size += 2 * k
        offset = np.maximum(feature, 0) * n
        _descend(node[:growing].ravel(), rows[:growing].ravel(), offset, child + 1, left, codes,
                 ws.scratch)
    return feature[:size], left[:size].copy(), child[:size], node


@dataclass
class BoostedModel:
    """Stagewise additive model on the log scale: exp(F0 + shrinkage * sum(trees)).

    `trees` is one `Forest`, joined once when the model is fitted or
    loaded, and the only form its trees take; a slice of it is a forest
    too. It memoizes its forest's log score per cell of a frame's code
    grid, of at most `_SCRATCH` cells: bins by schema levels. The memo is
    per process; assigning any field drops it, and `to_dict` leaves it out."""

    kind = "gbm"  # the tag `to_dict` writes and `pipeline.load_model` reads

    family: str
    f0: float
    shrinkage: float
    trees: Forest = field(default_factory=partial(Forest.join, ()))
    n_trees: int = 0
    depth: int = 0
    seed: int = 0
    train_fold: object = None
    features: list[str] = field(default_factory=list)
    cuts: dict[str, np.ndarray] = field(default_factory=dict)  # continuous features only
    tuned: dict | None = None
    # grid radices: log score per cell, NaN until walked
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name != "_memo":
            super().__setattr__("_memo", {})

    def _codes(self, dataset: Dataset) -> np.ndarray:
        """Feature-major (features, rows) matrix: the bin of each continuous
        value, the level code of each categorical one; a code past the go-left
        tables, which only a schema wider than them allows, is a `GbmError`."""
        columns, width = [], self.trees.left.shape[1] if len(self.trees) else math.inf
        for name, radix in zip(self.features, self._radices(dataset)):
            column = dataset.columns[name]
            if name in self.cuts:
                column = bin_codes(self.cuts[name], column)
            elif radix > width and column.max(initial=0) >= width:
                raise GbmError(f"feature {name!r} has a level code past the go-left tables")
            columns.append(column)
        return np.stack(columns).astype(np.intp, copy=False)

    def _radices(self, dataset: Dataset) -> tuple:
        """The code grid: each continuous feature's bins, each categorical one's schema levels."""
        return tuple(len(self.cuts[name]) + 1 if name in self.cuts
                     else len(dataset.column_schema(name).levels) for name in self.features)

    def _distinct(self, dataset: Dataset):
        """The code matrix of the distinct binned rows, in lexicographic
        order, and each row's index among them (`data.distinct_rows`)."""
        codes = self._codes(dataset)
        radices = [int(column.max(initial=0)) + 1 for column in codes]
        first, inverse = distinct_rows(dataset.n, codes, radices)
        return codes.take(first, axis=1), inverse

    def _add_trees(self, scores: np.ndarray, codes: np.ndarray, trees: Forest,
                   n_rows: int) -> None:
        """Add each tree's shrunken output to the log scores of the rows of
        `codes`, in place and in tree order. The forest's trees are walked
        in blocks of at most `max(n_rows, _SCRATCH)` (tree, row) pairs, and
        at least one tree, tree-major; each row adds its block's values one
        after another, by a cumulative sum over the block for at most
        `_CUMSUM_ROWS` rows, a loop over its trees otherwise."""
        if not trees or not len(scores):
            return
        u = len(scores)
        block = max(1, max(n_rows, _SCRATCH) // u)
        rows = np.tile(np.arange(u), min(block, len(trees)))
        nodes, scratch = np.empty((min(block, len(trees)), u), dtype=np.intp), _scratch(len(rows))
        steps = np.empty(nodes.shape)
        root = trees.bounds[:-1]
        offset = np.maximum(trees.feature, 0) * u
        value = self.shrinkage * trees.value
        for start in range(0, len(trees), block):
            roots = root[start : start + block]
            node = nodes[: len(roots)]
            node[:] = roots[:, None]
            pairs, pair_rows = node.ravel(), rows[: node.size]
            for _ in range(self.depth):
                _descend(pairs, pair_rows, offset, trees.right, trees.left, codes, scratch)
            increments = value.take(node, out=steps[: len(roots)], mode="clip")
            if u <= _CUMSUM_ROWS:
                scores[:] = np.cumsum(np.vstack((scores, increments)), axis=0)[-1]
            else:
                for increment in increments:
                    scores += increment

    def log_scores(self, dataset: Dataset) -> np.ndarray:
        """F0 plus the shrunken outputs of every tree on each row of `dataset`:
        from the memo when the grid is small, and otherwise by the distinct
        rows. A prefix predicts as `replace(model, trees=model.trees[:k])`."""
        radices = self._radices(dataset)
        if math.prod(radices) > _SCRATCH:
            codes, inverse = self._distinct(dataset)
            scores = np.full(codes.shape[1], self.f0)
            self._add_trees(scores, codes, self.trees, dataset.n)
            return scores.take(inverse)
        memo = self._memo.setdefault(radices, np.full(math.prod(radices), np.nan))
        key = np.ravel_multi_index(self._codes(dataset), radices)
        new = np.unique(key[np.isnan(memo.take(key))])
        scores = np.full(len(new), self.f0)
        self._add_trees(scores, np.stack(np.unravel_index(new, radices)), self.trees, dataset.n)
        memo[new] = scores
        return memo.take(key)

    def predict(self, dataset: Dataset) -> np.ndarray:
        """Strictly positive predictions; exposure not applied."""
        return np.exp(self.log_scores(dataset))

    def to_dict(self) -> dict:
        d = {"kind": self.kind, **{key: getattr(self, key) for key in _PAYLOAD_KEYS}}
        d["cuts"] = {name: c.tolist() for name, c in self.cuts.items()}
        f = self.trees
        d["width"] = f.left.shape[1] if len(f) else 0
        # each tree numbers its nodes from 0, and its go-left table is
        # written as its bits, row after row, in hex
        d["trees"] = [
            {"feature": f.feature[a:b].tolist(), "left": np.packbits(f.left[a:b]).tobytes().hex(),
             "child": (f.right[a:b] - (a + 1)).tolist(), "value": f.value[a:b].tolist()}
            for a, b in zip(f.bounds[:-1], f.bounds[1:])
        ]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BoostedModel":
        trees = []
        for t in d["trees"]:
            shape = (len(t["feature"]), d["width"])
            bits = np.frombuffer(bytes.fromhex(t["left"]), np.uint8)
            left = np.unpackbits(bits, count=shape[0] * shape[1])
            trees.append((np.array(t["feature"]), left.astype(bool).reshape(shape),
                          np.array(t["child"]), np.array(t["value"], dtype=float)))
        cuts = {name: np.array(c, dtype=float) for name, c in d["cuts"].items()}
        return cls(trees=Forest.join(trees), cuts=cuts, **{key: d[key] for key in _PAYLOAD_KEYS})


def _start(dataset: Dataset, family: str, n_trees: int, depth: int, seed: int,
           shrinkage: float, train_fold=None) -> BoostedModel:
    """A model without trees on a checked training frame: its intercept,
    at the family's weighted mean response, and its cuts."""
    if dataset.n == 0:
        raise GbmError("empty training data")
    if not dataset.feature_names:
        raise GbmError("no feature columns to split on")
    fam = get_family(family, GbmError)
    y = dataset.response
    fam.check_response(y, GbmError)
    f0 = float(np.log(fam.mean(y, fam.obs_weight(dataset))))
    cuts = {name: _cuts(dataset.columns[name]) for name in dataset.continuous_names}
    return BoostedModel(family, f0, shrinkage, Forest.join(()), n_trees, depth, seed, train_fold,
                        dataset.feature_names, cuts)


def _boost(model: BoostedModel, dataset: Dataset, valid: Dataset | None, depths,
           bagging_fraction: float):
    """Boost one model per depth of `depths` (deepest first) on `dataset`,
    the frame `model` was started on, for `model.n_trees` rounds. All
    share the cuts and the bag of each round. Each round yields the node
    arrays of its trees, roots in the order of `depths`, with log-scale
    leaf values from one Newton step, and the (depths, rows) log scores of
    the validation frame `valid` (no rows when None), a view that the next
    round overwrites.

    The trees grow in one `_Workspace` over the training rows, then the
    rows of `valid`, coded with the model's cuts and never drawn into a
    bag. The gradient, hessian and leaf sums are taken over the bag's rows
    in ascending order; every row goes down each tree in the same descent
    and takes its leaf's value."""
    fam = get_family(model.family, GbmError)
    y = dataset.response
    w = fam.obs_weight(dataset)
    size = model._radices(dataset)
    categorical = np.array([name not in model.cuts for name in model.features], dtype=bool)
    layout = _Layout(size, categorical)
    codes = model._codes(dataset)
    keys = codes + layout.start[:, None]
    if valid is not None:
        codes = np.hstack((codes, model._codes(valid)))

    rng = substream(model.seed, "gbm-bagging")
    min_count = max(1, int(np.ceil(MIN_NODE_SHARE * dataset.n)))
    n, n_rows = dataset.n, codes.shape[1]
    current = np.full((len(depths), n_rows), model.f0)  # log-scale score, excluding offset
    n_bag = max(1, int(round(bagging_fraction * n)))
    ws = _Workspace(len(depths), len(model.features), n_rows, n_bag)
    bag, in_bag = ws.order[:n_bag], np.zeros(n, dtype=bool)
    bag_leaf = ws.scratch[1][: len(depths) * n_bag].reshape(len(depths), n_bag)
    by_row = ws.scratch[1].reshape(len(depths), n_rows)
    for _ in range(model.n_trees):
        if n_bag < n:
            in_bag[:] = False
            in_bag[rng.choice(n, size=n_bag, replace=False)] = True
            ws.order[:n_bag] = np.flatnonzero(in_bag)
            ws.order[n_bag:n] = np.flatnonzero(np.logical_not(in_bag, out=in_bag))
            ws.rows[:] = ws.order
        keys.take(bag, axis=1, out=ws.keys, mode="clip")
        y.take(bag, out=ws.y, mode="clip")
        w.take(bag, out=ws.w, mode="clip")
        pred = np.exp(current.take(bag, axis=1, out=ws.pred, mode="clip"), out=ws.pred)
        grad = fam.gradient(pred, ws.y, ws.w, out=ws.grad)
        hess = fam.hessian(pred, ws.y, ws.w, out=ws.hess)
        feature, left, child, leaf = _grow(codes, ws.keys, layout, grad, depths, min_count, ws)
        bag_leaf[:] = leaf[:, :n_bag]  # the bag's pairs, contiguous for `bincount`
        g = np.bincount(bag_leaf.ravel(), grad.ravel(), len(feature))
        h = np.bincount(bag_leaf.ravel(), hess.ravel(), len(feature))
        value = np.divide(g, h, out=np.zeros(len(feature)), where=h > 0)
        by_row[:, ws.order] = leaf  # each pair's leaf, rows in frame order
        current += (model.shrinkage * value).take(by_row, out=ws.step, mode="clip")
        yield (feature, left, child, value), current[:, n:]


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
    model = _start(dataset, family, n_trees, depth, seed, shrinkage, train_fold)
    rounds = _boost(model, dataset, None, (depth,), bagging_fraction)
    model.trees = Forest.join(nodes for nodes, _ in rounds)
    return model


def _inner_fold_losses(dataset, family, fold_plan, outer_fold, trees, depths, seed, k):
    """Validation deviance of inner fold `k` per depth and tree count.

    The fold grows the depths as one forest with its validation rows in
    the workspace: their log scores add f0, then each tree's shrunken leaf
    value in tree order, and their deviance is read at each tree count."""
    fam = get_family(family, GbmError)
    losses = np.zeros((len(depths), len(trees)))
    train = dataset.subset(fold_plan.inner_train_rows(outer_fold, k))
    valid = dataset.subset(fold_plan.test_rows(k))
    model = _start(train, family, trees[-1], depths[0], seed, SHRINKAGE)
    i = 0
    for t, (_, scores) in enumerate(_boost(model, train, valid, depths, BAGGING_FRACTION), 1):
        while i < len(trees) and trees[i] == t:
            losses[:, i] = [fam.deviance(np.exp(s), valid) for s in scores]
            i += 1
    return losses


def tune_gbm(
    dataset: Dataset,
    family: str,
    fold_plan: FoldPlan,
    outer_fold: int,
    n_trees_grid=DESK_TREE_GRID,
    depth_grid=DESK_DEPTH_GRID,
    seed: int = 0,
) -> tuple[tuple[int, int], list[dict]]:
    """Minimize inner 5-fold cross-validation deviance over the grid.

    In each inner fold every depth grows in one forest up to the largest
    tree count, and the validation deviance is read at every tree count
    as the trees are grown; no tree is kept. Inner folds run in forked
    workers, with the lowest failing fold's error raised. Returns the chosen
    `(n_trees, depth)` and the grid: one `{"n_trees", "depth",
    "inner_deviance"}` entry per cell, depths in the given order and tree
    counts ascending. The choice is the grid's first minimum."""
    if not n_trees_grid or not depth_grid:
        raise GbmError("empty tuning grid")
    for value in (*n_trees_grid, *depth_grid):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise GbmError(f"tuning grid values must be positive integers, got {value!r}")
    trees = tuple(sorted(int(t) for t in n_trees_grid))
    depths = sorted({int(d) for d in depth_grid}, reverse=True)
    inner = fold_plan.inner_folds(outer_fold)
    losses = sum(fork_map(partial(_inner_fold_losses, dataset, family, fold_plan, outer_fold,
                                  trees, depths, seed), inner)) / len(inner)
    grid = [
        {"n_trees": t, "depth": int(d), "inner_deviance": float(loss)}
        for d in depth_grid
        for t, loss in zip(trees, losses[depths.index(d)])
    ]
    best = min(grid, key=lambda entry: entry["inner_deviance"])
    return (best["n_trees"], best["depth"]), grid
