"""Gradient-boosted regression trees for Poisson and gamma deviance.

Fixed hyperparameters follow the benchmark setup: shrinkage 0.01, bagging
fraction 0.75, minimum node size 0.75% of the training rows. The tuned
parameters are the number of trees and the tree depth. Trees split on raw
continuous values; categorical splits order levels by the mean gradient
inside the node and route unseen levels to the majority child.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._rand import substream
from .data import Dataset, FoldPlan
from .evaluation import get_family

SHRINKAGE = 0.01
BAGGING_FRACTION = 0.75
MIN_NODE_SHARE = 0.0075

PAPER_TREE_GRID = (100, 300, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000)
PAPER_DEPTH_GRID = tuple(range(1, 11))
DESK_TREE_GRID = (50, 100, 200, 400)
DESK_DEPTH_GRID = (1, 2, 3, 4, 5)


class GbmError(ValueError):
    pass


@dataclass
class _Node:
    # split nodes carry (variable, kind, threshold-or-level-set, children);
    # leaves carry the log-scale value
    leaf: bool
    value: float = 0.0
    variable: str = ""
    kind: str = ""  # "continuous" | "categorical"
    threshold: float = 0.0
    left_levels: tuple[int, ...] = ()
    right_levels: tuple[int, ...] = ()
    majority_left: bool = True
    left: "_Node | None" = None
    right: "_Node | None" = None

    def to_dict(self):
        if self.leaf:
            return {"leaf": True, "value": self.value}
        return {
            "leaf": False,
            "variable": self.variable,
            "kind": self.kind,
            "threshold": self.threshold,
            "left_levels": list(self.left_levels),
            "right_levels": list(self.right_levels),
            "majority_left": self.majority_left,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        if d["leaf"]:
            return cls(leaf=True, value=d["value"])
        return cls(
            leaf=False,
            variable=d["variable"],
            kind=d["kind"],
            threshold=d["threshold"],
            left_levels=tuple(d["left_levels"]),
            right_levels=tuple(d["right_levels"]),
            majority_left=d["majority_left"],
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )


def _route_left(node: _Node, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
    values = dataset.columns[node.variable][rows]
    if node.kind == "continuous":
        return values <= node.threshold
    left = np.isin(values, node.left_levels)
    # levels absent at fit time go to the majority child
    unseen = ~np.isin(values, node.left_levels + node.right_levels)
    if unseen.any():
        left = np.where(unseen, node.majority_left, left)
    return left


def _tree_predict(node: _Node, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
    out = np.empty(len(rows))
    stack = [(node, np.arange(len(rows)))]
    while stack:
        nd, idx = stack.pop()
        if len(idx) == 0:
            continue
        if nd.leaf:
            out[idx] = nd.value
            continue
        left = _route_left(nd, dataset, rows[idx])
        stack.append((nd.left, idx[left]))
        stack.append((nd.right, idx[~left]))
    return out


def _best_split_numeric(values, grad, min_count):
    order = np.argsort(values, kind="stable")
    xs, gs = values[order], grad[order]
    boundary = np.flatnonzero(xs[:-1] < xs[1:]) + 1
    if boundary.size == 0:
        return None
    cg = np.cumsum(gs)
    n = len(gs)
    total = cg[-1]
    nl = boundary
    nr = n - nl
    ok = (nl >= min_count) & (nr >= min_count)
    if not ok.any():
        return None
    sl = cg[boundary - 1]
    sr = total - sl
    # squared-error gain of splitting on the mean-fitted residuals
    gain = sl**2 / nl + sr**2 / nr - total**2 / n
    gain = np.where(ok, gain, -np.inf)
    j = int(np.argmax(gain))
    cut = (xs[boundary[j] - 1] + xs[boundary[j]]) / 2.0
    return float(gain[j]), float(cut)


def _best_split_categorical(codes, grad, n_levels, min_count):
    counts = np.bincount(codes, minlength=n_levels)
    present = np.flatnonzero(counts)
    if len(present) < 2:
        return None
    sums = np.bincount(codes, weights=grad, minlength=n_levels)
    means = sums[present] / counts[present]
    order = present[np.argsort(means, kind="stable")]
    cn = np.cumsum(counts[order])
    cs = np.cumsum(sums[order])
    n, total = cn[-1], cs[-1]
    nl, sl = cn[:-1], cs[:-1]
    nr, sr = n - nl, total - sl
    ok = (nl >= min_count) & (nr >= min_count)
    if not ok.any():
        return None
    gain = sl**2 / nl + sr**2 / nr - total**2 / n
    gain = np.where(ok, gain, -np.inf)
    j = int(np.argmax(gain))
    left_levels = tuple(int(l) for l in order[: j + 1])
    right_levels = tuple(int(l) for l in order[j + 1 :])
    majority_left = cn[j] >= n - cn[j]
    return float(gain[j]), left_levels, right_levels, bool(majority_left)


def _grow_tree(dataset, rows, grad, depth, min_count, leaf_value):
    def build(idx, level):
        if level >= depth or len(idx) < 2 * min_count:
            return _Node(leaf=True, value=leaf_value(idx))
        g = grad[idx]
        best = None
        for name in dataset.feature_names:
            col = dataset.column_schema(name)
            if col.kind == "continuous":
                res = _best_split_numeric(dataset.columns[name][idx], g, min_count)
                if res and (best is None or res[0] > best[0]):
                    best = (res[0], name, "continuous", res[1], (), (), True)
            else:
                res = _best_split_categorical(
                    dataset.columns[name][idx], g, len(col.levels), min_count
                )
                if res and (best is None or res[0] > best[0]):
                    best = (res[0], name, "categorical", 0.0, res[1], res[2], res[3])
        if best is None or best[0] <= 0:
            return _Node(leaf=True, value=leaf_value(idx))
        _, name, kind, threshold, left_levels, right_levels, majority_left = best
        node = _Node(
            leaf=False,
            variable=name,
            kind=kind,
            threshold=threshold,
            left_levels=left_levels,
            right_levels=right_levels,
            majority_left=majority_left,
        )
        left = _route_left(node, dataset, idx)
        node.left = build(idx[left], level + 1)
        node.right = build(idx[~left], level + 1)
        return node

    return build(rows, 0)


@dataclass
class BoostedModel:
    """Stagewise additive model on the log scale: exp(F0 + shrinkage * sum(trees))."""

    family: str
    f0: float
    shrinkage: float
    trees: list[_Node] = field(default_factory=list)
    n_trees: int = 0
    depth: int = 0
    seed: int = 0
    train_fold: object = None

    def log_scores(self, dataset: Dataset, n_trees: int | None = None) -> np.ndarray:
        rows = np.arange(dataset.n)
        total = np.full(dataset.n, self.f0)
        use = self.trees if n_trees is None else self.trees[:n_trees]
        for tree in use:
            total += self.shrinkage * _tree_predict(tree, dataset, rows)
        return total

    def predict(self, dataset: Dataset, n_trees: int | None = None) -> np.ndarray:
        """Strictly positive predictions; exposure not applied."""
        return np.exp(self.log_scores(dataset, n_trees))

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "f0": self.f0,
                "shrinkage": self.shrinkage,
                "n_trees": self.n_trees,
                "depth": self.depth,
                "seed": self.seed,
                "train_fold": self.train_fold,
                "trees": [t.to_dict() for t in self.trees],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "BoostedModel":
        d = json.loads(text)
        model = cls(
            family=d["family"],
            f0=d["f0"],
            shrinkage=d["shrinkage"],
            n_trees=d["n_trees"],
            depth=d["depth"],
            seed=d["seed"],
            train_fold=d.get("train_fold"),
        )
        model.trees = [_Node.from_dict(t) for t in d["trees"]]
        return model


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
    fam = get_family(family, GbmError)
    y = dataset.response
    fam.check_response(y, GbmError)
    w = fam.obs_weight(dataset)
    f0 = float(np.log(fam.mean(y, w)))

    model = BoostedModel(family, f0, shrinkage, [], n_trees, depth, seed, train_fold)
    rng = substream(seed, "gbm-bagging")
    min_count = max(1, int(np.ceil(MIN_NODE_SHARE * dataset.n)))
    current = np.full(dataset.n, f0)  # log-scale score, excluding offset
    all_rows = np.arange(dataset.n)

    for _ in range(n_trees):
        n_bag = max(1, int(round(bagging_fraction * dataset.n)))
        bag = rng.choice(dataset.n, size=n_bag, replace=False) if n_bag < dataset.n else all_rows
        pred = np.exp(current)
        hess = fam.hessian(pred, y, w)
        tree_grad = fam.gradient(pred, y, w)[bag]

        def leaf_value(idx, tg=tree_grad, th=hess[bag]):
            h = np.sum(th[idx])
            return float(np.sum(tg[idx]) / h) if h > 0 else 0.0

        bag_view = dataset.subset(bag)
        tree = _grow_tree(bag_view, np.arange(len(bag)), tree_grad, depth, min_count, leaf_value)
        model.trees.append(tree)
        if shrinkage != 0.0:
            current += shrinkage * _tree_predict(tree, dataset, all_rows)
    return model


def _cv_deviance(dataset, fam, fold_plan, outer_fold, n_trees_grid, depth, seed):
    """Average validation deviance per n_trees value, over the inner folds."""
    max_trees = max(n_trees_grid)
    losses = np.zeros(len(n_trees_grid))
    inner = fold_plan.inner_folds(outer_fold)
    for k in inner:
        train_idx = np.flatnonzero((fold_plan.outer != outer_fold) & (fold_plan.outer != k))
        valid_idx = fold_plan.test_rows(k)
        model = fit_gbm(dataset.subset(train_idx), fam.name, max_trees, depth, seed=seed)
        valid = dataset.subset(valid_idx)
        scores = np.full(valid.n, model.f0)
        rows = np.arange(valid.n)
        grid_pos = 0
        for t, tree in enumerate(model.trees, start=1):
            scores += model.shrinkage * _tree_predict(tree, valid, rows)
            if grid_pos < len(n_trees_grid) and t == n_trees_grid[grid_pos]:
                losses[grid_pos] += fam.deviance(np.exp(scores), valid)
                grid_pos += 1
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
