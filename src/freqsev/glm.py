"""Log-link GLMs fitted by iteratively reweighted least squares.

Poisson (frequency, with log-exposure offset) and gamma (severity, with
claim-count weights) families over designs of categorical factors and
tree-binned continuous covariates; a design may also group a
categorical's levels (`LevelGroups`), and still predicts from the
original columns. Treatment coding with the most populous level as
reference; an interaction multiplies the non-reference dummies of its
two factors. The dense design matrix (`build_design_matrix`) is built
for fitting only: a fitted model predicts by coefficient lookups, one
per design term, indexed by each row's level codes. `GlmModel.to_dict`
is the model's payload (design, binning, coefficients and fit
statistics in plain JSON types), and `GlmModel.from_dict` rebuilds it;
the payload doubles as the technical tariff table interchange format.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, bin_codes
# poisson_deviance_contributions stays importable from here: bench/test_tracing.py
# checks that tracing wraps a function under the names other modules import it by
from .evaluation import get_family, poisson_deviance_contributions  # noqa: F401

MAX_ITER = 100
REL_TOL = 1e-8
TREE_BIN_LEAVES = 8  # the limits of `tree_bin`, as its docstring describes
TREE_BIN_MIN_SHARE = 0.05
TREE_BIN_MIN_GAIN = 0.01


class GlmError(ValueError):
    pass


@dataclass(frozen=True)
class BinningRule:
    """Ordered cut points turning a continuous variable into intervals."""

    variable: str
    cuts: tuple[float, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.cuts, self.cuts[1:])):
            raise GlmError(f"cut points for {self.variable!r} must be strictly increasing")

    @property
    def n_bins(self) -> int:
        return len(self.cuts) + 1

    def apply(self, values: np.ndarray) -> np.ndarray:
        return bin_codes(self.cuts, values)

    def labels(self) -> list[str]:
        edges = [-np.inf, *self.cuts, np.inf]
        return [f"({edges[i]:.6g},{edges[i + 1]:.6g}]" for i in range(len(edges) - 1)]


@dataclass(frozen=True)
class LevelGroups:
    """Groups of a categorical variable's levels, as the group of each
    level code; a group's label joins its levels in code order by `+`."""

    variable: str
    level_to_segment: tuple[int, ...]

    def __post_init__(self):
        groups = set(self.level_to_segment)
        if not all(type(g) is int for g in groups) or groups != set(range(len(groups))):
            raise GlmError(f"level groups for {self.variable!r} must be the integers 0..k-1, "
                           f"each used, got {list(self.level_to_segment)}")

    def apply(self, codes: np.ndarray) -> np.ndarray:
        return np.asarray(self.level_to_segment)[codes]

    def labels(self, levels) -> list[str]:
        groups = self.level_to_segment
        if len(levels) != len(groups):
            raise GlmError(f"level groups for {self.variable!r} cover {len(groups)} levels, "
                           f"the column has {len(levels)}")
        return ["+".join(lv for lv, g in zip(levels, groups) if g == s)
                for s in range(max(groups) + 1)]


def _rule_payload(rule):
    if isinstance(rule, LevelGroups):
        return {"level_to_segment": list(rule.level_to_segment)}
    return list(rule.cuts)


def _rule_from_payload(name, payload):
    if isinstance(payload, dict):
        return LevelGroups(name, tuple(payload["level_to_segment"]))
    return BinningRule(name, tuple(payload))


def _factor_codes(dataset: Dataset, name: str, binning: dict):
    """Level codes and labels for a factor variable (categorical column,
    optionally grouped, or binned continuous column)."""
    col, rule = dataset.column_schema(name), binning.get(name)
    if col.kind == "categorical" and rule is None:
        return dataset.columns[name], list(col.levels)
    if col.kind == "categorical" and isinstance(rule, LevelGroups):
        return rule.apply(dataset.columns[name]), rule.labels(col.levels)
    if col.kind == "continuous" and isinstance(rule, BinningRule):
        return rule.apply(dataset.columns[name]), rule.labels()
    if col.kind == "continuous" and rule is None:
        raise GlmError(f"continuous variable {name!r} needs a BinningRule in the design")
    raise GlmError(f"column {name!r} of kind {col.kind} cannot enter a GLM design"
                   + (f" with a {type(rule).__name__}" if rule else ""))


@dataclass(frozen=True)
class Design:
    """GLM design: intercept plus main effects and pairwise interactions
    over factor variables. `binning` holds a `BinningRule` for each
    continuous factor and a `LevelGroups` for each grouped categorical."""

    main_effects: tuple[str, ...] = ()
    interactions: tuple[tuple[str, str], ...] = ()
    binning: dict[str, BinningRule | LevelGroups] = field(default_factory=dict)


def _factors(dataset: Dataset, design: Design, references: dict) -> dict:
    """Each factor of the design, in first-use order: its level codes,
    level labels and reference level. A factor without a frozen reference
    takes its most populous level."""
    factors = {}
    for var in dict.fromkeys([*design.main_effects, *sum(design.interactions, ())]):
        codes, labels = _factor_codes(dataset, var, design.binning)
        ref = references.get(var)
        if ref is None:
            ref = int(np.argmax(np.bincount(codes, minlength=len(labels))))
        factors[var] = codes, labels, ref
    return factors


def build_design_matrix(dataset: Dataset, design: Design, references=None):
    """Design matrix with intercept and treatment-coded factor dummies.

    Returns (X, column_names, references). At fit time the reference level
    of each factor is its most populous level; `references` (factor name ->
    level index) freezes that choice so prediction frames reuse the
    training coding regardless of their own level counts. An interaction
    a:b holds the products of the non-reference dummies of a and b.
    """
    factors = _factors(dataset, design, references or {})
    dummies = {}
    for var, (codes, labels, ref) in factors.items():
        kept = np.delete(np.arange(len(labels)), ref)
        dummies[var] = (codes[:, None] == kept).astype(float), [labels[k] for k in kept]
    blocks, names = [np.ones((dataset.n, 1))], ["(Intercept)"]
    for var in design.main_effects:
        blocks.append(dummies[var][0])
        names.extend(f"{var}[{label}]" for label in dummies[var][1])
    for var_a, var_b in design.interactions:
        (block_a, labels_a), (block_b, labels_b) = dummies[var_a], dummies[var_b]
        blocks.append((block_a[:, :, None] * block_b[:, None, :]).reshape(dataset.n, -1))
        names.extend(f"{var_a}:{var_b}[{la}*{lb}]" for la in labels_a for lb in labels_b)
    return np.hstack(blocks), names, {var: ref for var, (_, _, ref) in factors.items()}


@dataclass
class GlmModel:
    """A fitted log-link GLM over binned/categorical covariates."""

    kind = "glm"  # the tag `to_dict` writes and `pipeline.load_model` reads

    design: Design
    family: str
    coef: np.ndarray
    column_names: list[str]
    deviance: float
    loglik: float
    bic: float
    n_obs: int
    dispersion: float = 1.0
    train_fold: object = None
    references: dict = field(default_factory=dict)

    def predict(self, dataset: Dataset) -> np.ndarray:
        """exp(eta) per row; exposure is NOT applied (the losses do).

        eta is the intercept plus, for each design term in column order,
        one coefficient looked up by the row's level codes: a table of L
        entries for a factor, of L_a x L_b for an interaction a:b, with 0
        at the reference levels. A row's premium depends on that row alone.
        """
        factors = _factors(dataset, self.design, self.references)
        terms = [(var,) for var in self.design.main_effects] + list(self.design.interactions)
        shapes = [tuple(len(factors[var][1]) for var in term) for term in terms]
        widths = [int(np.prod(np.subtract(shape, 1))) for shape in shapes]
        if 1 + sum(widths) != len(self.coef):
            raise GlmError("rows do not conform to the fitted design")
        eta = np.full(dataset.n, self.coef[0])
        start = 1
        for term, shape, width in zip(terms, shapes, widths):
            table = np.zeros(shape)
            kept = [np.delete(np.arange(size), factors[var][2]) for var, size in zip(term, shape)]
            table[np.ix_(*kept)] = self.coef[start:start + width].reshape(np.subtract(shape, 1))
            start += width
            codes = factors[term[0]][0]
            if len(term) == 2:
                codes = codes * shape[1] + factors[term[1]][0]
            eta += table.ravel().take(codes)
        return np.exp(eta, out=eta)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "main_effects": list(self.design.main_effects),
            "interactions": [list(p) for p in self.design.interactions],
            "binning": {name: _rule_payload(rule) for name, rule in self.design.binning.items()},
            "coefficients": dict(zip(self.column_names, map(float, self.coef))),
            "deviance": self.deviance,
            "loglik": self.loglik,
            "bic": self.bic,
            "n_obs": self.n_obs,
            "dispersion": self.dispersion,
            "train_fold": self.train_fold,
            "references": self.references,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GlmModel":
        binning = {name: _rule_from_payload(name, rule) for name, rule in d["binning"].items()}
        design = Design(tuple(d["main_effects"]), tuple(map(tuple, d["interactions"])), binning)
        names = list(d["coefficients"])
        coef = np.array([d["coefficients"][k] for k in names], dtype=float)
        return cls(design, d["family"], coef, names, d["deviance"], d["loglik"], d["bic"],
                   d["n_obs"], d["dispersion"], d["train_fold"], d["references"])

    @property
    def tariff_table(self) -> dict:
        """Segments and multiplicative rating factors per design term."""
        factors = {
            name: float(np.exp(beta))
            for name, beta in zip(self.column_names, self.coef)
            if name != "(Intercept)"
        }
        return {
            "base_level": float(np.exp(self.coef[0])),
            "relativities": factors,
            "binning": {n: _rule_payload(r) for n, r in self.design.binning.items()},
        }


def _aliased(X, names, count):
    """The `count` columns that earlier columns of X span, in design order:
    the smallest |R_jj| of X's unpivoted QR, and 0 past a wide X's last row."""
    diag = np.abs(np.diagonal(np.linalg.qr(X, mode="r")))
    diag = np.concatenate((diag, np.zeros(X.shape[1] - len(diag))))
    return [names[j] for j in np.sort(np.argsort(diag, kind="stable")[:count])]


def fit_glm(
    dataset: Dataset,
    design: Design,
    family: str,
    train_fold=None,
) -> GlmModel:
    """Fit by IRLS until the relative deviance change is below 1e-8.

    Poisson uses ln(exposure) as offset; gamma uses the claim counts as
    prior weights. Deterministic; raises on non-convergence and on rank
    deficiency, which the first solve finds at the start model's positive
    weights, naming the columns that earlier columns span, in design order.
    Warns once, naming them, when columns' rows hold no response: their
    maximum-likelihood coefficients are -inf, so the stopping rule sets them.
    """
    fam = get_family(family, GlmError)
    X, names, references = build_design_matrix(dataset, design)
    y = dataset.response
    n, k = X.shape
    obs_w = fam.obs_weight(dataset)
    offset, prior_w = fam.split_weight(obs_w)
    beta = np.zeros(k)
    beta[0] = np.log(fam.mean(y, obs_w))

    def deviance_of(mu):
        # mu includes the offset, so the prior weight stands in for w
        return float(np.sum(fam.contributions(mu, y, prior_w)))

    eta = X @ beta + offset
    mu = np.exp(eta)
    dev = deviance_of(mu)
    trace = [dev]
    for step in range(MAX_ITER):
        w = fam.working_weight(mu, prior_w)
        z = (eta - offset) + (y - mu) / mu
        sw = np.sqrt(w)
        beta, _, rank, _ = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)
        if step == 0 and rank < k:  # later weights may fall towards 0
            aliased = _aliased(X, names, k - rank)
            raise GlmError(f"rank-deficient design; aliased columns: {aliased}")
        eta = X @ beta + offset
        mu = np.exp(eta)
        new_dev = deviance_of(mu)
        trace.append(new_dev)
        if abs(new_dev - dev) <= REL_TOL * (abs(dev) + 0.1):
            dev = new_dev
            break
        dev = new_dev
    else:
        raise GlmError(f"IRLS did not converge in {MAX_ITER} iterations; deviance trace {trace}")
    silent = [name for name, total in zip(names[1:], y @ X[:, 1:]) if total == 0]
    if silent:
        warnings.warn(f"no response in the rows of columns {silent}: their coefficients head "
                      "for -inf and stop where IRLS converges")

    dispersion = fam.dispersion(dev, n, k)
    loglik = fam.loglik(y, mu, prior_w, dispersion)
    bic_value = -2.0 * loglik + k * np.log(n)
    return GlmModel(
        design=design,
        family=family,
        coef=beta,
        column_names=names,
        deviance=dev,
        loglik=loglik,
        bic=bic_value,
        n_obs=n,
        dispersion=dispersion,
        train_fold=train_fold,
        references=references,
    )


# -- tree binning -------------------------------------------------------


def tree_bin(
    variable: np.ndarray,
    response: np.ndarray,
    exposure: np.ndarray | None = None,
    family: str = "poisson_log",
    name: str = "x",
) -> BinningRule:
    """Cut points from a deviance regression tree on a single variable.

    Best-first splitting until `TREE_BIN_LEAVES` leaves; a split must
    reduce the parent deviance by at least `TREE_BIN_MIN_GAIN` of the root
    deviance and leave `TREE_BIN_MIN_SHARE` of the observations, and a
    positive response total (a claim, for counts), on each side, so that
    no bin's coefficient is left to IRLS's stopping rule. A constant
    variable yields a single bin with a warning. A leaf is a run of one
    stable sort of the variable, searched by one pair of prefix sums over
    the run.
    """
    x = np.asarray(variable, dtype=float)
    y = np.asarray(response, dtype=float)
    w = np.ones(len(y)) if exposure is None else np.asarray(exposure, dtype=float)
    fam = get_family(family, GlmError)
    if np.all(x == x[0]):
        warnings.warn(f"variable {name!r} is constant; single bin")
        return BinningRule(name, ())

    root_dev = float(np.sum(fam.contributions(np.full(len(y), fam.mean(y, w)), y, w)))
    min_count = max(1, int(np.ceil(TREE_BIN_MIN_SHARE * len(y))))
    order = np.argsort(x, kind="stable")  # a leaf's run is in the order its own sort gives
    xs, ys, ws = x[order], y[order], w[order]
    positive = np.concatenate([[0], np.cumsum(ys > 0)])  # rows of positive response before i

    def best_split(lo, hi):
        run = xs[lo:hi]
        boundary = np.flatnonzero(run[:-1] < run[1:]) + 1  # left-block sizes
        if boundary.size == 0:
            return None
        c1, c2 = fam.split_sums(ys[lo:hi], ws[lo:hi])
        t1, t2 = c1[-1], c2[-1]
        left = boundary - 1
        gain = (
            fam.half_deviance(t1, t2)
            - fam.half_deviance(c1[left], c2[left])
            - fam.half_deviance(t1 - c1[left], t2 - c2[left])
        )
        cut_at = positive[lo + boundary]
        ok = ((boundary >= min_count) & (hi - lo - boundary >= min_count)
              & (cut_at > positive[lo]) & (positive[hi] > cut_at))
        if not ok.any():
            return None
        gain = np.where(ok, gain, -np.inf)
        j = int(np.argmax(gain))
        cut = (run[boundary[j] - 1] + run[boundary[j]]) / 2.0
        return (float(gain[j]), float(cut))

    leaves = [(0, len(y))]
    cuts: list[float] = []
    candidates = {0: best_split(0, len(y))}
    while len(leaves) < TREE_BIN_LEAVES:
        viable = {
            i: c
            for i, c in candidates.items()
            if c is not None and c[0] > TREE_BIN_MIN_GAIN * max(root_dev, 1e-12)
        }
        if not viable:
            break
        i = max(viable, key=lambda j: viable[j][0])
        gain, cut = viable[i]
        lo, hi = leaves[i]
        mid = lo + int(np.searchsorted(xs[lo:hi], cut, side="right"))  # x <= cut goes left
        leaves[i] = (lo, mid)
        leaves.append((mid, hi))
        cuts.append(float(cut))
        candidates[i] = best_split(lo, mid)
        candidates[len(leaves) - 1] = best_split(mid, hi)
    return BinningRule(name, tuple(sorted(cuts)))
