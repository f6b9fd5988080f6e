"""Model-agnostic interpretation tools.

Permutation variable importance and one- and two-way partial
dependence, for any model exposing predict(dataset) -> positive per-row
predictions.

Partial dependence relies on one contract, which every freqsev model
keeps: a model predicts each row from that row's feature columns alone.
Rows that agree on every feature but the swept ones then predict alike,
so a curve or surface predicts only the u distinct such rows of the
frame's n, with every grid point's rows stacked in one frame: whole grid
points, as many as fit in n rows, go into one `predict` call, so m points
take ceil(m / floor(n / u)) calls and no call sees more rows than the
frame. A point's value is the `np.mean` of its n row predictions, taken
back from the distinct rows, so it keeps the bits that predicting the
whole pinned frame gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rand import substream
from .data import Dataset, distinct_rows, write_rows

PD_GRID_CAP = 100


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


def permutation_vip(model, dataset: Dataset,
                    seed: int = 0) -> tuple[dict[str, float], dict[str, float]]:
    """Sum of absolute prediction changes when one variable is permuted.

    One permutation draw per variable. Returns (vip, relative_vip);
    relative values are normalized to sum 1 (all zero stays all zero).
    """
    if dataset.n == 0:
        raise InterpretationError(f"cannot compute the importance of {dataset.feature_names} "
                                  "on an empty dataset")
    base = model.predict(dataset)
    vip = {}
    for variable in dataset.feature_names:
        perm = substream(seed, "vip", variable).permutation(dataset.n)
        shuffled = dataset.with_column(variable, dataset.columns[variable][perm])
        vip[variable] = float(np.sum(np.abs(base - model.predict(shuffled))))
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


def _grid(dataset: Dataset, variable: str, grid) -> np.ndarray:
    """`grid`, or the default one, once the variable and the points are
    fit for partial dependence on `dataset`."""
    if dataset.n == 0:
        raise InterpretationError("cannot compute partial dependence on an empty dataset")
    if variable not in dataset.feature_names:
        raise InterpretationError(f"{variable!r} is not a feature; partial dependence "
                                  f"sweeps one of {dataset.feature_names}")
    grid = default_pd_grid(dataset, variable) if grid is None else np.asarray(grid)
    if not np.all(np.isfinite(grid)):
        raise InterpretationError(f"the grid of {variable!r} holds a non-finite point")
    return grid


def _distinct(dataset: Dataset, swept) -> tuple[np.ndarray, np.ndarray]:
    """`distinct_rows` over every feature not in `swept`: categorical
    level codes below their schema's level count, continuous values by
    their index among the column's distinct values."""
    columns, radices = [], []
    for variable in dataset.feature_names:
        if variable in swept:
            continue
        column = dataset.columns[variable]
        if variable in dataset.categorical_names:
            radix = len(dataset.column_schema(variable).levels)
        else:
            values, column = np.unique(column, return_inverse=True)
            radix = len(values)
        columns.append(column)
        radices.append(radix)
    return distinct_rows(dataset.n, columns, radices)


def _sweep(model, dataset: Dataset, points: dict[str, np.ndarray]) -> np.ndarray:
    """The average prediction over the dataset at each point, where point
    i pins every variable v of `points` to points[v][i]."""
    first, inverse = _distinct(dataset, points)
    u, per_call = len(first), dataset.n // len(first)
    values = np.empty(len(next(iter(points.values()))))
    for start in range(0, len(values), per_call):
        batch = slice(start, start + per_call)
        k = len(values[batch])
        frame = dataset.subset(np.tile(first, k))
        for variable, grid in points.items():
            dtype = np.int64 if variable in dataset.categorical_names else float
            frame = frame.with_column(variable, np.repeat(grid[batch].astype(dtype), u))
        predictions = model.predict(frame).reshape(k, u)
        values[batch] = [np.mean(row.take(inverse)) for row in predictions]
    return values


def partial_dependence(
    model, dataset: Dataset, variable: str, grid=None, model_id: str = ""
) -> PdCurve:
    """Average prediction over the dataset while the variable is pinned
    to each grid point in turn."""
    grid = _grid(dataset, variable, grid)
    labels = None
    if variable in dataset.categorical_names:
        levels = dataset.column_schema(variable).levels
        labels = tuple(levels[int(g)] for g in grid)
    return PdCurve(variable, grid, _sweep(model, dataset, {variable: grid}), model_id, labels)


def partial_dependence_2d(
    model, dataset: Dataset, var_a: str, var_b: str, grid_a=None, grid_b=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-way PD surface: (grid_a, grid_b, matrix of shape |a| x |b|).
    Row i is the PD of `var_b` on the frame pinned at grid_a[i]."""
    if var_a == var_b:
        raise InterpretationError(f"two-way partial dependence needs two variables, "
                                  f"got {var_a!r} twice")
    grid_a, grid_b = _grid(dataset, var_a, grid_a), _grid(dataset, var_b, grid_b)
    points = {var_a: np.repeat(grid_a, len(grid_b)), var_b: np.tile(grid_b, len(grid_a))}
    return grid_a, grid_b, _sweep(model, dataset, points).reshape(len(grid_a), len(grid_b))


def write_vip_csv(vip: dict[str, float], relative: dict[str, float], model_id: str, path):
    rows = [(model_id, v, vip[v], relative[v]) for v in sorted(vip, key=vip.get, reverse=True)]
    write_rows(path, ["model_id", "variable", "vip", "relative_vip"], rows)


def write_pd_csv(curves: list[PdCurve], path):
    rows = []
    for curve in curves:
        labels = curve.labels or [""] * len(curve.grid)
        rows += [(curve.model_id, curve.variable, *point)
                 for point in zip(curve.grid.tolist(), labels, curve.values.tolist())]
    write_rows(path, ["model_id", "variable", "grid", "label", "pd"], rows)
