"""Log-link GLMs fitted by iteratively reweighted least squares.

Poisson (frequency, with log-exposure offset) and gamma (severity, with
claim-count weights) families over designs of categorical factors and
tree-binned continuous covariates. Treatment coding with the most
populous level as reference. Model export doubles as the technical
tariff table interchange format.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .data import Dataset
# poisson_deviance_contributions stays importable from here: bench/test_tracing.py
# checks that tracing wraps a function under the names other modules import it by
from .evaluation import get_family, poisson_deviance_contributions  # noqa: F401

MAX_ITER = 100
REL_TOL = 1e-8


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
        return np.searchsorted(np.asarray(self.cuts), values, side="left")

    def labels(self) -> list[str]:
        edges = [-np.inf, *self.cuts, np.inf]
        return [f"({edges[i]:.6g},{edges[i + 1]:.6g}]" for i in range(len(edges) - 1)]


def _factor_codes(dataset: Dataset, name: str, binning: dict[str, BinningRule]):
    """Level codes and labels for a factor variable (categorical column or
    binned continuous column)."""
    col = dataset.column_schema(name)
    if col.kind == "categorical":
        return dataset.columns[name], list(col.levels)
    if col.kind == "continuous":
        if name not in binning:
            raise GlmError(f"continuous variable {name!r} needs a BinningRule in the design")
        rule = binning[name]
        return rule.apply(dataset.columns[name]), rule.labels()
    raise GlmError(f"column {name!r} of kind {col.kind} cannot enter a GLM design")


@dataclass(frozen=True)
class Design:
    """GLM design: intercept plus main effects and pairwise interactions
    over factor variables."""

    main_effects: tuple[str, ...] = ()
    interactions: tuple[tuple[str, str], ...] = ()
    binning: dict[str, BinningRule] = field(default_factory=dict)


def build_design_matrix(dataset: Dataset, design: Design, references=None):
    """Design matrix with intercept and treatment-coded factor dummies.

    Returns (X, column_names, references). At fit time the reference level
    of each term is its most populous level; `references` (term name ->
    level index) freezes that choice so prediction frames reuse the
    training coding regardless of their own level counts.
    """
    references = references or {}
    terms = [(var, *_factor_codes(dataset, var, design.binning)) for var in design.main_effects]
    for var_a, var_b in design.interactions:
        codes_a, labels_a = _factor_codes(dataset, var_a, design.binning)
        codes_b, labels_b = _factor_codes(dataset, var_b, design.binning)
        labels = [f"{la}*{lb}" for la in labels_a for lb in labels_b]
        terms.append((f"{var_a}:{var_b}", codes_a * len(labels_b) + codes_b, labels))
    blocks = [np.ones((dataset.n, 1))]
    names = ["(Intercept)"]
    used = {}
    for name, codes, labels in terms:
        ref = references.get(name)
        if ref is None:
            ref = int(np.argmax(np.bincount(codes, minlength=len(labels))))
        kept = np.delete(np.arange(len(labels)), ref)
        blocks.append((codes[:, None] == kept).astype(float))
        names.extend(f"{name}[{labels[lvl]}]" for lvl in kept)
        used[name] = ref
    return np.hstack(blocks), names, used


@dataclass
class GlmModel:
    """A fitted log-link GLM over binned/categorical covariates."""

    kind = "glm"  # the tag `to_json` writes and `pipeline.load_model` reads

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
        """exp(X beta) per row; exposure is NOT applied (the losses do)."""
        X, _, _ = build_design_matrix(dataset, self.design, self.references)
        if X.shape[1] != len(self.coef):
            raise GlmError("rows do not conform to the fitted design")
        return np.exp(X @ self.coef)

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "family": self.family,
            "main_effects": list(self.design.main_effects),
            "interactions": [list(p) for p in self.design.interactions],
            "binning": {
                name: list(rule.cuts) for name, rule in self.design.binning.items()
            },
            "coefficients": dict(zip(self.column_names, map(float, self.coef))),
            "deviance": self.deviance,
            "bic": self.bic,
            "n_obs": self.n_obs,
            "dispersion": self.dispersion,
            "train_fold": self.train_fold,
            "references": self.references,
        }
        return json.dumps(payload, indent=2)

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
            "binning": {n: list(r.cuts) for n, r in self.design.binning.items()},
        }


def _check_rank(X, names):
    q, r, p = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(X.shape) * np.finfo(float).eps
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        aliased = [names[j] for j in p[rank:]]
        raise GlmError(f"rank-deficient design; aliased columns: {aliased}")


def fit_glm(
    dataset: Dataset,
    design: Design,
    family: str,
    train_fold=None,
) -> GlmModel:
    """Fit by IRLS until the relative deviance change is below 1e-8.

    Poisson uses ln(exposure) as offset; gamma uses the claim counts as
    prior weights. Deterministic; raises on rank deficiency or
    non-convergence.
    """
    fam = get_family(family, GlmError)
    X, names, references = build_design_matrix(dataset, design)
    _check_rank(X, names)
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
    for _ in range(MAX_ITER):
        w = fam.working_weight(mu, prior_w)
        z = (eta - offset) + (y - mu) / mu
        sw = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)
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


def glm_from_json(text: str) -> GlmModel:
    payload = json.loads(text)
    binning = {
        name: BinningRule(name, tuple(cuts)) for name, cuts in payload["binning"].items()
    }
    design = Design(
        tuple(payload["main_effects"]),
        tuple(tuple(p) for p in payload["interactions"]),
        binning,
    )
    names = list(payload["coefficients"])
    coef = np.asarray([payload["coefficients"][k] for k in names])
    return GlmModel(
        design=design,
        family=payload["family"],
        coef=coef,
        column_names=names,
        deviance=payload["deviance"],
        loglik=np.nan,
        bic=payload["bic"],
        n_obs=payload["n_obs"],
        dispersion=payload.get("dispersion", 1.0),
        train_fold=payload.get("train_fold"),
        references=payload.get("references", {}),
    )


# -- tree binning -------------------------------------------------------


def tree_bin(
    variable: np.ndarray,
    response: np.ndarray,
    exposure: np.ndarray | None = None,
    max_bins: int = 8,
    family: str = "poisson_log",
    min_share: float = 0.05,
    min_gain: float = 0.01,
    name: str = "x",
) -> BinningRule:
    """Cut points from a deviance regression tree on a single variable.

    Best-first splitting until `max_bins` leaves; a split must reduce the
    parent deviance by at least `min_gain` of the root deviance and leave
    `min_share` of the observations on each side. A constant variable
    yields a single bin with a warning.
    """
    x = np.asarray(variable, dtype=float)
    y = np.asarray(response, dtype=float)
    w = np.ones(len(y)) if exposure is None else np.asarray(exposure, dtype=float)
    if max_bins < 2:
        raise GlmError("max_bins must be >= 2")
    fam = get_family(family, GlmError)
    if np.all(x == x[0]):
        warnings.warn(f"variable {name!r} is constant; single bin")
        return BinningRule(name, ())

    root_dev = float(np.sum(fam.contributions(np.full(len(y), fam.mean(y, w)), y, w)))
    min_count = max(1, int(np.ceil(min_share * len(y))))

    def best_split(rows):
        xv = x[rows]
        order = np.argsort(xv, kind="stable")
        xs, ys, ws = xv[order], y[rows][order], w[rows][order]
        boundary = np.flatnonzero(xs[:-1] < xs[1:]) + 1  # left-block sizes
        if boundary.size == 0:
            return None
        c1, c2 = fam.split_sums(ys, ws)
        t1, t2 = c1[-1], c2[-1]
        left = boundary - 1
        gain = (
            fam.half_deviance(t1, t2)
            - fam.half_deviance(c1[left], c2[left])
            - fam.half_deviance(t1 - c1[left], t2 - c2[left])
        )
        ok = (boundary >= min_count) & (len(xs) - boundary >= min_count)
        if not ok.any():
            return None
        gain = np.where(ok, gain, -np.inf)
        j = int(np.argmax(gain))
        cut = (xs[boundary[j] - 1] + xs[boundary[j]]) / 2.0
        return (float(gain[j]), float(cut))

    leaves = [np.arange(len(y))]
    cuts: list[float] = []
    candidates = {0: best_split(leaves[0])}
    while len(leaves) < max_bins:
        viable = {
            i: c
            for i, c in candidates.items()
            if c is not None and c[0] > min_gain * max(root_dev, 1e-12)
        }
        if not viable:
            break
        i = max(viable, key=lambda j: viable[j][0])
        gain, cut = viable[i]
        rows = leaves[i]
        left_rows = rows[x[rows] <= cut]
        right_rows = rows[x[rows] > cut]
        leaves[i] = left_rows
        leaves.append(right_rows)
        cuts.append(float(cut))
        candidates[i] = best_split(left_rows)
        candidates[len(leaves) - 1] = best_split(right_rows)
    return BinningRule(name, tuple(sorted(cuts)))
