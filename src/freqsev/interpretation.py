"""Model-agnostic interpretation tools.

Permutation variable importance and one- and two-way partial
dependence, for any model exposing predict(dataset) -> positive per-row
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rand import substream
from .data import Dataset, write_rows

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
