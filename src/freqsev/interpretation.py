"""Model-agnostic interpretation tools.

Permutation variable importance, one- and two-way partial dependence
and Monte-Carlo Shapley values, for any model exposing
predict(dataset) -> positive per-row predictions.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from ._rand import substream
from .data import Dataset

PD_GRID_CAP = 100
SHAPLEY_BACKGROUND_CAP = 500


class InterpretationError(ValueError):
    pass


@dataclass(frozen=True)
class PdCurve:
    """Averaged prediction as one variable sweeps its grid."""

    variable: str
    grid: np.ndarray  # level codes for categoricals, values for continuous
    values: np.ndarray
    model_id: str = ""
    labels: tuple[str, ...] | None = None  # level names when categorical

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise InterpretationError("one PD value per grid point required")


def permutation_vip(
    model, dataset: Dataset, seed: int = 0, repeats: int = 1
) -> tuple[dict[str, float], dict[str, float]]:
    """Sum of absolute prediction changes when one variable is permuted.

    One permutation draw per variable per repeat; repeats > 1 averages
    draws for variance reduction. Returns (vip, relative_vip); relative
    values are normalized to sum 1 (all zero stays all zero).
    """
    if repeats < 1:
        raise InterpretationError("repeats must be >= 1")
    base = model.predict(dataset)
    vip = {}
    for variable in dataset.feature_names:
        rng = substream(seed, "vip", variable)
        total = 0.0
        for _ in range(repeats):
            perm = rng.permutation(dataset.n)
            shuffled = dataset.with_column(variable, dataset.columns[variable][perm])
            total += float(np.sum(np.abs(base - model.predict(shuffled))))
        vip[variable] = total / repeats
    grand = sum(vip.values())
    relative = {v: (x / grand if grand > 0 else 0.0) for v, x in vip.items()}
    return vip, relative


def default_pd_grid(dataset: Dataset, variable: str) -> np.ndarray:
    """Categorical: every level code. Continuous: steps of the smallest
    observed gap across the observed range, evenly thinned to at most
    100 points."""
    if variable in dataset.categorical_names:
        return np.arange(len(dataset.column_schema(variable).levels))
    x = np.unique(dataset.columns[variable].astype(float))
    if len(x) == 1:
        return x
    step = np.min(np.diff(x))
    # the points np.arange(x[0], x[-1] + step / 2, step) would hold, without
    # building that grid: the smallest gap shrinks about as 1/n^2
    n = int(np.ceil((x[-1] + step / 2 - x[0]) / step))
    index = np.arange(n) if n <= PD_GRID_CAP else np.round(np.linspace(0, n - 1, PD_GRID_CAP))
    return x[0] + index * ((x[0] + step) - x[0])


def _pinned(dataset: Dataset, variable: str, value) -> Dataset:
    """The dataset with every row's `variable` set to `value`."""
    dtype = np.int64 if variable in dataset.categorical_names else float
    return dataset.with_column(variable, np.full(dataset.n, value, dtype=dtype))


def partial_dependence(
    model, dataset: Dataset, variable: str, grid=None, model_id: str = ""
) -> PdCurve:
    """Average prediction over the dataset while the variable is pinned
    to each grid point in turn."""
    if dataset.n == 0:
        raise InterpretationError("cannot compute partial dependence on an empty dataset")
    if grid is None:
        grid = default_pd_grid(dataset, variable)
    grid = np.asarray(grid)
    values = np.empty(len(grid))
    for i, g in enumerate(grid):
        values[i] = float(np.mean(model.predict(_pinned(dataset, variable, g))))
    labels = None
    if variable in dataset.categorical_names:
        levels = dataset.column_schema(variable).levels
        labels = tuple(levels[int(g)] for g in grid)
    return PdCurve(variable, grid, values, model_id, labels)


def partial_dependence_2d(
    model, dataset: Dataset, var_a: str, var_b: str, grid_a=None, grid_b=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-way PD surface: (grid_a, grid_b, matrix of shape |a| x |b|).
    Row i is the PD of `var_b` on the frame pinned at grid_a[i]."""
    if dataset.n == 0:
        raise InterpretationError("cannot compute partial dependence on an empty dataset")
    grid_a = default_pd_grid(dataset, var_a) if grid_a is None else np.asarray(grid_a)
    grid_b = default_pd_grid(dataset, var_b) if grid_b is None else np.asarray(grid_b)
    surface = np.empty((len(grid_a), len(grid_b)))
    for i, ga in enumerate(grid_a):
        surface[i] = partial_dependence(model, _pinned(dataset, var_a, ga), var_b, grid_b).values
    return grid_a, grid_b, surface


def shapley_mc(
    model,
    dataset: Dataset,
    row: int,
    n_permutations: int = 200,
    seed: int = 0,
    exhaustive: bool = False,
) -> tuple[dict[str, float], float]:
    """Monte-Carlo permutation-sampling Shapley contributions for one row.

    Background is the evaluation frame (subsampled to 500 rows). Per
    permutation the contributions telescope, so they sum exactly to
    f(row) minus the background mean prediction. With `exhaustive` all
    feature orderings are enumerated instead of sampled (exact Shapley).
    Returns (contributions, base_value).
    """
    if n_permutations < 1:
        raise InterpretationError("n_permutations must be >= 1")
    if not 0 <= row < dataset.n:
        raise InterpretationError(f"row {row} out of range")
    rng = substream(seed, "shapley", row)
    background = dataset
    if dataset.n > SHAPLEY_BACKGROUND_CAP:
        background = dataset.subset(
            rng.choice(dataset.n, SHAPLEY_BACKGROUND_CAP, replace=False)
        )
    features = list(dataset.feature_names)
    row_values = {v: dataset.columns[v][row] for v in features}
    base_value = float(np.mean(model.predict(background)))
    totals = {v: 0.0 for v in features}
    if exhaustive:
        orders = list(itertools.permutations(range(len(features))))
        n_permutations = len(orders)
    else:
        orders = [rng.permutation(len(features)) for _ in range(n_permutations)]
    for order in orders:
        current = background
        prev_mean = base_value
        for k in order:
            variable = features[k]
            current = current.with_column(
                variable, np.full(background.n, row_values[variable])
            )
            mean_now = float(np.mean(model.predict(current)))
            totals[variable] += mean_now - prev_mean
            prev_mean = mean_now
    contributions = {v: totals[v] / n_permutations for v in features}
    return contributions, base_value


def write_vip_csv(vip: dict[str, float], relative: dict[str, float], model_id: str, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "variable", "vip", "relative_vip"])
        for variable in sorted(vip, key=vip.get, reverse=True):
            writer.writerow([model_id, variable, repr(vip[variable]), repr(relative[variable])])


def write_pd_csv(curves: list[PdCurve], path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "variable", "grid", "label", "pd"])
        for curve in curves:
            labels = curve.labels or [""] * len(curve.grid)
            for g, label, value in zip(curve.grid, labels, curve.values):
                writer.writerow([curve.model_id, curve.variable, g, label, repr(float(value))])
