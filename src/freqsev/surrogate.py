"""Distill a black-box model into an interpretable GLM.

Each variable's partial-dependence (PD) effect is segmented by optimal
1-D dynamic programming weighted by data frequency. One DP table per
variable, built in O(L) numpy calls and O(K*L) memory for L grid points
and K segments, gives the segments at PENALTY and the k chosen at each
penalty of PENALTY_GRID. Continuous segments are `glm.BinningRule`
intervals (lo,cut], so a value equal to a cut falls in the segment whose
label ends at it; categorical segments are `glm.LevelGroups`. Every
candidate GLM is fitted on the original frame with those rules in its
design, so the BIC-selected one, kept as fitted, is a plain `GlmModel`:
it predicts from a raw portfolio, saves and loads like any GLM and
exports its tariff table. The interaction screen reuses the PD curves of
the segmentation.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, bin_codes
from .glm import BinningRule, Design, GlmError, GlmModel, LevelGroups, fit_glm
from .interpretation import default_pd_grid, partial_dependence, partial_dependence_2d


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
    """cost[m][j] = optimal cost of splitting grid[0..j] into m segments;
    split[m][j] = start of the last segment, the first minimizer on ties."""
    n = len(values)
    w = np.concatenate([[0.0], np.cumsum(weights)])
    wv = np.concatenate([[0.0], np.cumsum(weights * values)])
    wv2 = np.concatenate([[0.0], np.cumsum(weights * values * values)])
    cost = np.full((k_max + 1, n), np.inf)
    split = np.zeros((k_max + 1, n), dtype=int)
    for j in range(n):
        # weighted SSE of segment i..j for every start i; 0 when it has no weight
        tw = w[j + 1] - w[: j + 1]
        s = wv[j + 1] - wv[: j + 1]
        occupied = tw > 0
        sse = (wv2[j + 1] - wv2[: j + 1]) - s * s / np.where(occupied, tw, 1.0)
        sse = np.where(occupied, np.maximum(0.0, sse), 0.0)
        cost[1, j] = sse[0]
        top = min(k_max, j + 1)
        if top > 1:
            # row m-2, column i-1 is cost[m-1, i-1] + sse(i, j); starts i < m-1
            # meet cost[m-1] columns still at inf, so they never win
            c = cost[1:top, :j] + sse[1:]
            arg = np.argmin(c, axis=1)
            cost[2 : top + 1, j] = c[np.arange(top - 1), arg]
            split[2 : top + 1, j] = arg + 1
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


def _segment_input(pd_values, weights):
    """Grid-ordered values and their weights as float arrays, once checked."""
    values = np.asarray(pd_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if len(values) == 0:
        raise SurrogateError("no values to segment")
    if len(w) != len(values):
        raise SurrogateError("weights and values must align")
    if np.any(w < 0):
        raise SurrogateError("weights must be non-negative")
    return values, w


def dp_segment(pd_values, weights, k: int) -> DpSegments:
    """Globally optimal contiguous k-segmentation of grid-ordered values,
    minimizing the weighted within-segment sum of squared deviations."""
    values, w = _segment_input(pd_values, weights)
    if not 1 <= k <= len(values):
        raise SurrogateError(f"k must be in [1, {len(values)}], got {k}")
    return _read_segments(values, w, *_dp_tables(values, w, k), k)


def choose_k(pd_values, weights, k_max: int, penalty: float = PENALTY) -> int:
    """Smallest k minimizing DP cost + penalty * k * ln(total weight)."""
    values, w = _segment_input(pd_values, weights)
    if k_max < 1:
        raise SurrogateError("k_max must be >= 1")
    cost, _ = _dp_tables(values, w, min(k_max, len(values)))
    return _best_k(cost, w, penalty)


# -- variable segmentation over PD effects -------------------------------


@dataclass(frozen=True)
class VariableSegments:
    """One original variable's PD segments."""

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

    @property
    def rule(self) -> BinningRule | LevelGroups:
        """The design rule that recodes the variable onto its segments."""
        if self.kind == "continuous":
            return BinningRule(self.variable, self.cuts)
        return LevelGroups(self.variable, self.level_to_segment)


def _grid_weights(dataset: Dataset, variable: str, grid: np.ndarray) -> np.ndarray:
    """Data frequency per grid point (nearest grid point for continuous)."""
    if variable in dataset.categorical_names:
        return np.bincount(dataset.columns[variable], minlength=len(grid)).astype(float)
    mids = (grid[:-1] + grid[1:]) / 2.0
    idx = bin_codes(mids, dataset.columns[variable])
    return np.bincount(idx, minlength=len(grid)).astype(float)


def segment_variable(dataset: Dataset, variable: str, pd_grid: np.ndarray, pd_values: np.ndarray,
                     k_max: int = K_MAX, penalty: float = PENALTY) -> VariableSegments:
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
        level_to_segment = np.empty(len(pd_grid), dtype=int)
        for s, (i, j) in enumerate(segs.bounds):
            level_to_segment[order[i : j + 1]] = s
        groups = LevelGroups(variable, tuple(int(s) for s in level_to_segment))
        return VariableSegments(
            variable, "categorical", tuple(groups.labels(dataset.column_schema(variable).levels)),
            segs.representatives, level_to_segment=groups.level_to_segment,
            sensitivity=sensitivity,
        )
    rule = BinningRule(
        variable, tuple(float((pd_grid[j] + pd_grid[j + 1]) / 2.0) for _, j in segs.bounds[:-1])
    )
    return VariableSegments(
        variable, "continuous", tuple(rule.labels()), segs.representatives, cuts=rule.cuts,
        sensitivity=sensitivity,
    )


# -- surrogate construction ----------------------------------------------


@dataclass
class SurrogateModel:
    """The BIC-selected GLM, whose design holds the segments of its
    variables, with those segments and the selection report."""

    glm: GlmModel
    segments: dict[str, VariableSegments]
    report: dict = field(default_factory=dict)

    def predict(self, dataset: Dataset) -> np.ndarray:
        return self.glm.predict(dataset)


def _interaction_score(model, dataset, curve_a, curve_b):
    """Deviation of the log 2-way PD surface from log-additivity of the
    1-way PD curves (max absolute residual), each curve evenly thinned to
    at most INTERACTION_GRID points."""

    def thin(curve):
        n = len(curve.grid)
        idx = np.round(np.linspace(0, n - 1, min(n, INTERACTION_GRID))).astype(int)
        return curve.grid[idx], curve.values[idx]

    (grid_a, pd_a), (grid_b, pd_b) = thin(curve_a), thin(curve_b)
    _, _, surface = partial_dependence_2d(
        model, dataset, curve_a.variable, curve_b.variable, grid_a, grid_b)
    log_s = np.log(surface)
    additive = np.log(pd_a)[:, None] + np.log(pd_b)[None, :]
    resid = log_s - additive
    resid -= resid.mean()
    return float(np.max(np.abs(resid)))


def _fit_candidate(dataset, segments, mains, interactions, family):
    binning = {v: segments[v].rule for v in mains}
    try:
        model = fit_glm(dataset, Design(tuple(mains), tuple(interactions), binning), family)
        return model, model.bic
    except GlmError:
        return None, np.inf


def build_surrogate(model, dataset: Dataset, family: str) -> SurrogateModel:
    """PD computation, per-variable segmentation, then a BIC search over
    main-effect subsets (exhaustive up to MAX_EXHAUSTIVE survivors, greedy
    forward beyond) plus screened pairwise interactions."""
    segments: dict[str, VariableSegments] = {}
    sensitivity: dict[str, dict[float, int]] = {}
    curves = {}
    for variable in dataset.feature_names:
        grid = default_pd_grid(dataset, variable)
        curve = curves[variable] = partial_dependence(model, dataset, variable, grid)
        seg = segment_variable(dataset, variable, grid, curve.values)
        sensitivity[variable] = seg.sensitivity
        if seg.n_segments > 1:
            segments[variable] = seg
    report = {"segment_counts": {v: s.n_segments for v, s in segments.items()},
              "penalty_sensitivity": sensitivity, "candidates": []}
    survivors = sorted(segments)
    if not survivors:
        warnings.warn("all partial-dependence effects are flat; intercept-only surrogate")
        glm = fit_glm(dataset, Design(), family)
        report["selected"] = {"mains": [], "interactions": [], "bic": glm.bic}
        return SurrogateModel(glm, {}, report)

    best_model, best_bic, best_mains = None, np.inf, ()
    if len(survivors) <= MAX_EXHAUSTIVE:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(survivors, r) for r in range(len(survivors) + 1)
        )
        for mains in subsets:
            cand, cand_bic = _fit_candidate(dataset, segments, mains, (), family)
            report["candidates"].append({"mains": list(mains), "bic": cand_bic})
            if cand_bic < best_bic:
                best_model, best_bic, best_mains = cand, cand_bic, mains
    else:
        mains: tuple = ()
        best_model, best_bic = _fit_candidate(dataset, segments, mains, (), family)
        improved = True
        while improved:
            improved = False
            for variable in survivors:
                if variable in mains:
                    continue
                cand, cand_bic = _fit_candidate(dataset, segments, (*mains, variable), (), family)
                report["candidates"].append({"mains": [*mains, variable], "bic": cand_bic})
                if cand_bic < best_bic:
                    best_model, best_bic, mains = cand, cand_bic, (*mains, variable)
                    improved = True
        best_mains = mains

    scored_pairs = []
    for var_a, var_b in itertools.combinations(best_mains, 2):
        score = _interaction_score(model, dataset, curves[var_a], curves[var_b])
        if score > INTERACTION_THRESHOLD:
            scored_pairs.append((score, (var_a, var_b)))
    scored_pairs.sort(reverse=True)
    interactions: tuple = ()
    for _, pair in scored_pairs[:MAX_INTERACTIONS]:
        cand, cand_bic = _fit_candidate(
            dataset, segments, best_mains, (*interactions, pair), family)
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
    return SurrogateModel(best_model, {v: segments[v] for v in best_mains}, report)


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
