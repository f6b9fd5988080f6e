"""Distill a black-box model into an interpretable GLM.

Each variable's partial-dependence effect is segmented by optimal 1-D
dynamic-programming clustering (weighted by data frequency). One DP table
per variable yields both the segments at PENALTY and the k chosen at each
penalty of PENALTY_GRID. Continuous segments are `glm.BinningRule`
intervals (lo,cut], so a value equal to a cut falls in the segment whose
label ends at it. The data is recoded onto the segments, and candidate
GLMs over the segmented variables are fitted and selected by BIC. The
result carries the same tariff-table export as any other GLM.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import ColumnSchema, Dataset
from .glm import BinningRule, Design, GlmError, GlmModel, fit_glm
from .interpretation import (
    default_pd_grid,
    partial_dependence,
    partial_dependence_2d,
)


K_MAX = 6  # most segments per variable
PENALTY = 1.0  # lambda in choose_k's penalty * k * ln(total weight)
PENALTY_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)  # lambdas of the penalty_sensitivity report
MAX_EXHAUSTIVE = 10  # most surviving variables searched over every subset
INTERACTION_THRESHOLD = 0.05  # least log-additivity residual that screens a pair in
INTERACTION_GRID = 8  # most grid points per variable of a 2-D PD surface
MAX_INTERACTIONS = 3


class SurrogateError(ValueError):
    pass


# -- optimal 1-D segmentation --------------------------------------------


@dataclass(frozen=True)
class DpSegments:
    """Contiguous segments over an ordered grid: inclusive index bounds,
    weighted-mean representative per segment, total within-segment cost."""

    bounds: tuple[tuple[int, int], ...]
    representatives: tuple[float, ...]
    cost: float


def _dp_tables(values, weights, k_max):
    """cost[m][j] = optimal cost of splitting grid[0..j] into m segments."""
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


def _read_segments(values, w, cost, split, k) -> DpSegments:
    """The optimal k-segmentation held in a DP table with at least k rows."""
    n = len(values)
    bounds, j = [], n - 1
    for m in range(k, 0, -1):
        i = split[m, j] if m > 1 else 0
        bounds.insert(0, (i, j))
        j = i - 1
    reps = []
    for i, j in bounds:
        tw = w[i : j + 1].sum()
        if tw > 0:
            reps.append(float(np.sum(w[i : j + 1] * values[i : j + 1]) / tw))
        else:
            reps.append(float(np.mean(values[i : j + 1])))
    return DpSegments(tuple(bounds), tuple(reps), float(cost[k, n - 1]))


def _best_k(cost, w, penalty: float) -> int:
    """Smallest k of the table minimizing cost + penalty * k * ln(total weight)."""
    total_w = max(float(w.sum()), 2.0)
    scores = [cost[k, -1] + penalty * k * np.log(total_w) for k in range(1, len(cost))]
    return int(np.argmin(scores)) + 1


def dp_segment(pd_values, weights, k: int) -> DpSegments:
    """Globally optimal contiguous k-segmentation of grid-ordered values,
    minimizing the weighted within-segment sum of squared deviations."""
    values = np.asarray(pd_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(values)
    if len(w) != n:
        raise SurrogateError("weights and values must align")
    if np.any(w < 0):
        raise SurrogateError("weights must be non-negative")
    if not 1 <= k <= n:
        raise SurrogateError(f"k must be in [1, {n}], got {k}")
    return _read_segments(values, w, *_dp_tables(values, w, k), k)


def choose_k(pd_values, weights, k_max: int, penalty: float = PENALTY) -> int:
    """Smallest k minimizing DP cost + penalty * k * ln(total weight)."""
    if k_max < 1:
        raise SurrogateError("k_max must be >= 1")
    values = np.asarray(pd_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    cost, _ = _dp_tables(values, w, min(k_max, len(values)))
    return _best_k(cost, w, penalty)


# -- variable segmentation over PD effects -------------------------------


@dataclass(frozen=True)
class VariableSegments:
    """Recoding of one original variable onto its PD segments."""

    variable: str
    kind: str  # "continuous" | "categorical"
    labels: tuple[str, ...]
    representatives: tuple[float, ...]
    cuts: tuple[float, ...] = ()  # continuous: BinningRule cuts of (lo,cut] segments
    level_to_segment: tuple[int, ...] = ()  # categorical: code -> segment
    # the k choose_k picks at each penalty of PENALTY_GRID, from the same DP table
    sensitivity: dict[float, int] = field(default_factory=dict, compare=False)

    @property
    def n_segments(self) -> int:
        return len(self.labels)

    def assign(self, column: np.ndarray) -> np.ndarray:
        if self.kind == "continuous":
            return BinningRule(self.variable, self.cuts).apply(column)
        return np.asarray(self.level_to_segment)[column]


def _grid_weights(dataset: Dataset, variable: str, grid: np.ndarray) -> np.ndarray:
    """Data frequency per grid point (nearest grid point for continuous)."""
    if variable in dataset.categorical_names:
        return np.bincount(dataset.columns[variable], minlength=len(grid)).astype(float)
    mids = (grid[:-1] + grid[1:]) / 2.0
    idx = np.searchsorted(mids, dataset.columns[variable].astype(float))
    return np.bincount(idx, minlength=len(grid)).astype(float)


def segment_variable(
    dataset: Dataset,
    variable: str,
    pd_grid: np.ndarray,
    pd_values: np.ndarray,
    k_max: int = K_MAX,
    penalty: float = PENALTY,
) -> VariableSegments:
    """Segment one variable by its PD effect. Categorical levels are
    ordered by PD value before the contiguous DP; continuous grids keep
    their natural order so segments stay intervals. The segments at
    `penalty` and the `sensitivity` report are read from one DP table."""
    categorical = variable in dataset.categorical_names
    values = np.asarray(pd_values, dtype=float)
    order = np.argsort(values, kind="stable") if categorical else np.arange(len(values))
    values, w = values[order], _grid_weights(dataset, variable, pd_grid)[order]
    cost, split = _dp_tables(values, w, min(k_max, len(values)))
    sensitivity = {lam: _best_k(cost, w, lam) for lam in PENALTY_GRID}
    segs = _read_segments(values, w, cost, split, _best_k(cost, w, penalty))
    if categorical:
        levels = dataset.column_schema(variable).levels
        level_to_segment = np.empty(len(pd_grid), dtype=int)
        labels = []
        for s, (i, j) in enumerate(segs.bounds):
            members = order[i : j + 1]
            level_to_segment[members] = s
            labels.append("+".join(levels[int(m)] for m in sorted(members)))
        return VariableSegments(
            variable,
            "categorical",
            tuple(labels),
            segs.representatives,
            level_to_segment=tuple(int(s) for s in level_to_segment),
            sensitivity=sensitivity,
        )
    rule = BinningRule(
        variable, tuple(float((pd_grid[j] + pd_grid[j + 1]) / 2.0) for _, j in segs.bounds[:-1])
    )
    return VariableSegments(
        variable, "continuous", tuple(rule.labels()), segs.representatives, cuts=rule.cuts,
        sensitivity=sensitivity,
    )


def segmented_dataset(dataset: Dataset, segments: dict[str, VariableSegments]) -> Dataset:
    """Recode the selected variables as segment-level categoricals; other
    feature columns are dropped, bookkeeping columns pass through."""
    schema, columns = [], {}
    for col in dataset.schema:
        if col.kind in ("continuous", "categorical"):
            seg = segments.get(col.name)
            if seg is None:
                continue
            schema.append(ColumnSchema(col.name, "categorical", seg.labels))
            columns[col.name] = seg.assign(dataset.columns[col.name]).astype(np.int64)
        else:
            schema.append(col)
            columns[col.name] = dataset.columns[col.name]
    return Dataset(tuple(schema), columns, dataset.weights)


# -- surrogate construction ----------------------------------------------


@dataclass
class SurrogateModel:
    """BIC-selected GLM over PD-segmented inputs; predicts from the
    original (unsegmented) frame."""

    glm: GlmModel
    segments: dict[str, VariableSegments]
    report: dict = field(default_factory=dict)

    def transform(self, dataset: Dataset) -> Dataset:
        return segmented_dataset(dataset, self.segments)

    def predict(self, dataset: Dataset) -> np.ndarray:
        return self.glm.predict(self.transform(dataset))

    @property
    def tariff_table(self) -> dict:
        table = self.glm.tariff_table
        table["segments"] = {
            v: {"labels": list(s.labels), "cuts": list(s.cuts)}
            for v, s in self.segments.items()
        }
        return table


def _interaction_score(model, dataset, var_a, var_b):
    """Deviation of the log 2-way PD surface from log-additivity of the
    1-way effects (max absolute residual)."""

    def thin(grid):
        if len(grid) <= INTERACTION_GRID:
            return grid
        return grid[np.round(np.linspace(0, len(grid) - 1, INTERACTION_GRID)).astype(int)]

    grid_a = thin(default_pd_grid(dataset, var_a))
    grid_b = thin(default_pd_grid(dataset, var_b))
    _, _, surface = partial_dependence_2d(model, dataset, var_a, var_b, grid_a, grid_b)
    pd_a = partial_dependence(model, dataset, var_a, grid_a).values
    pd_b = partial_dependence(model, dataset, var_b, grid_b).values
    log_s = np.log(surface)
    additive = np.log(pd_a)[:, None] + np.log(pd_b)[None, :]
    resid = log_s - additive
    resid -= resid.mean()
    return float(np.max(np.abs(resid)))


def _fit_candidate(data, mains, interactions, family):
    try:
        model = fit_glm(data, Design(tuple(mains), tuple(interactions)), family)
        return model, model.bic
    except GlmError:
        return None, np.inf


def build_surrogate(model, dataset: Dataset, family: str) -> SurrogateModel:
    """PD computation, per-variable segmentation, then a BIC search over
    main-effect subsets (exhaustive up to MAX_EXHAUSTIVE survivors, greedy
    forward beyond) plus screened pairwise interactions."""
    segments: dict[str, VariableSegments] = {}
    sensitivity: dict[str, dict[float, int]] = {}
    for variable in dataset.feature_names:
        grid = default_pd_grid(dataset, variable)
        curve = partial_dependence(model, dataset, variable, grid)
        seg = segment_variable(dataset, variable, grid, curve.values)
        sensitivity[variable] = seg.sensitivity
        if seg.n_segments > 1:
            segments[variable] = seg
    report = {"segment_counts": {v: s.n_segments for v, s in segments.items()},
              "penalty_sensitivity": sensitivity, "candidates": []}
    data = segmented_dataset(dataset, segments)
    survivors = sorted(segments)
    if not survivors:
        warnings.warn("all partial-dependence effects are flat; intercept-only surrogate")
        glm = fit_glm(data, Design(), family)
        report["selected"] = {"mains": [], "interactions": [], "bic": glm.bic}
        return SurrogateModel(glm, {}, report)

    best_model, best_bic, best_mains = None, np.inf, ()
    if len(survivors) <= MAX_EXHAUSTIVE:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(survivors, r) for r in range(len(survivors) + 1)
        )
        for mains in subsets:
            cand, cand_bic = _fit_candidate(data, mains, (), family)
            report["candidates"].append({"mains": list(mains), "bic": cand_bic})
            if cand_bic < best_bic:
                best_model, best_bic, best_mains = cand, cand_bic, mains
    else:
        mains: tuple = ()
        best_model, best_bic = _fit_candidate(data, mains, (), family)
        improved = True
        while improved:
            improved = False
            for variable in survivors:
                if variable in mains:
                    continue
                cand, cand_bic = _fit_candidate(data, (*mains, variable), (), family)
                report["candidates"].append({"mains": [*mains, variable], "bic": cand_bic})
                if cand_bic < best_bic:
                    best_model, best_bic, mains = cand, cand_bic, (*mains, variable)
                    improved = True
        best_mains = mains

    scored_pairs = []
    for var_a, var_b in itertools.combinations(best_mains, 2):
        score = _interaction_score(model, dataset, var_a, var_b)
        if score > INTERACTION_THRESHOLD:
            scored_pairs.append((score, (var_a, var_b)))
    scored_pairs.sort(reverse=True)
    interactions: tuple = ()
    for _, pair in scored_pairs[:MAX_INTERACTIONS]:
        cand, cand_bic = _fit_candidate(data, best_mains, (*interactions, pair), family)
        report["candidates"].append(
            {"mains": list(best_mains), "interactions": [*interactions, pair], "bic": cand_bic}
        )
        if cand_bic < best_bic:
            best_model, best_bic, interactions = cand, cand_bic, (*interactions, pair)

    report["selected"] = {
        "mains": list(best_mains),
        "interactions": [list(p) for p in interactions],
        "bic": best_bic,
    }
    kept = {v: segments[v] for v in best_mains}
    refit_data = segmented_dataset(dataset, kept)
    final = fit_glm(refit_data, Design(tuple(best_mains), interactions), family)
    return SurrogateModel(final, kept, report)


def write_selection_report(surrogate: SurrogateModel, path) -> None:
    """Human-readable variable-selection summary."""
    lines = ["surrogate GLM selection report", ""]
    sel = surrogate.report.get("selected", {})
    lines.append(f"selected main effects: {', '.join(sel.get('mains', [])) or '(intercept only)'}")
    inter = sel.get("interactions", [])
    lines.append(f"selected interactions: {', '.join(':'.join(p) for p in inter) or '(none)'}")
    lines.append(f"BIC: {sel.get('bic', float('nan'))}")
    lines.append("")
    for variable, seg in surrogate.segments.items():
        lines.append(f"{variable} ({seg.kind}, {seg.n_segments} segments):")
        for label, rep in zip(seg.labels, seg.representatives):
            lines.append(f"  {label}: pd {rep:.6g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
