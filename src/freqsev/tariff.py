"""Technical tariffs and model-lift comparison tools.

Premiums are frequency times severity predictions. Comparison works
through risk scores (ECDF of premiums), Lorenz curves, relativities and
ordered Lorenz curves, a pairwise Gini matrix, and the min-max rule that
picks the tariff whose worst challenger Gini is smallest.

Premiums, scores and losses must be finite; each function raises
`TariffError` on a NaN or infinite value. Rows are ordered by numpy's
default sort, with tied values put back in row order, which for finite
values is the order of a stable sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, write_rows


class TariffError(ValueError):
    pass


def _finite(values, what: str) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise TariffError(f"{what} must be finite")
    return x


def _stable_order(values: np.ndarray) -> np.ndarray:
    """`np.argsort(values, kind="stable")` for finite `values`: numpy's
    default sort, then tied values back in row order by sorting the
    distinct keys `block * n + row`, where `block` numbers the runs of
    equal sorted values."""
    order = np.argsort(values)
    ranked = values[order]
    n = len(values)
    key = order.copy()
    key[1:] += np.cumsum(ranked[1:] != ranked[:-1]) * n
    key.sort()
    return key % max(n, 1)


def _last_of_block(ranked: np.ndarray) -> np.ndarray:
    """Whether each sorted value is the last of its run of equal values."""
    return np.append(ranked[1:] != ranked[:-1], True)


def technical_premium(freq_model, sev_model, dataset: Dataset) -> np.ndarray:
    """Per-row expected claim count times expected severity (per unit
    exposure; multiply by exposure for a policy-period premium)."""
    freq = _finite(freq_model.predict(dataset), "premium components")
    sev = _finite(sev_model.predict(dataset), "premium components")
    if np.any(freq <= 0) or np.any(sev <= 0):
        raise TariffError("premium components must be strictly positive")
    return freq * sev


def balance_ratio(premiums, observed_losses) -> float:
    """Total predicted over total observed losses."""
    premiums = _finite(premiums, "premiums")
    losses = _finite(observed_losses, "losses")
    if len(premiums) != len(losses):
        raise TariffError("premiums and losses must cover the same rows")
    total = losses.sum()
    if total == 0:
        raise TariffError("observed losses sum to zero")
    return float(premiums.sum() / total)


def risk_scores(premiums) -> np.ndarray:
    """Empirical CDF of the premiums evaluated at each premium
    (right-continuous; tied premiums share the upper value)."""
    p = _finite(premiums, "premiums")
    return _ecdf(p, np.argsort(p))  # tied rows get one value, so their order does not matter


def _ecdf(p: np.ndarray, order: np.ndarray) -> np.ndarray:
    """`risk_scores(p)` from an `order` that sorts `p`."""
    if len(p) == 0:
        raise TariffError("no premiums given")
    end = np.flatnonzero(_last_of_block(p[order])) + 1  # rows at or below each block
    scores = np.empty(len(p))
    scores[order] = np.repeat(end, np.diff(end, prepend=0)) / len(p)
    return scores


def lorenz_curve(scores, losses) -> tuple[np.ndarray, np.ndarray]:
    """Share of losses on policies with risk score <= s, for s = 0 and
    each distinct observed score."""
    r = _finite(scores, "scores")
    return _lorenz(r, _stable_order(r), losses)


def _lorenz(r, order, losses):
    """`lorenz_curve(r, losses)` from `_stable_order(r)`."""
    losses = _finite(losses, "losses")
    if np.any(losses < 0):
        raise TariffError("losses must be non-negative")
    total = losses.sum()
    if total <= 0:
        raise TariffError("losses sum must be positive")
    ranked = r[order]
    s = np.concatenate([[0.0], ranked[_last_of_block(ranked)]])
    cum = np.concatenate([[0.0], np.cumsum(losses[order])]) / total
    idx = np.searchsorted(ranked, s, side="right")
    return s, cum[idx]


def relativities(premiums_a, premiums_b) -> np.ndarray:
    """Per-row premium ratio of model B over model A."""
    a = _finite(premiums_a, "premiums")
    b = _finite(premiums_b, "premiums")
    if np.any(a <= 0):
        raise TariffError("reference premiums must be strictly positive")
    return b / a


def ordered_lorenz(premiums_a, premiums_b, losses) -> tuple[np.ndarray, np.ndarray]:
    """Ordered Lorenz curve of (premium share of A, loss share),
    accumulated in order of the relativity B/A.

    Rows with equal relativity accumulate as one block (one curve point
    per distinct relativity), which makes the B = A comparison land
    exactly on the diagonal.
    """
    rel = relativities(premiums_a, premiums_b)
    a = np.asarray(premiums_a, dtype=float)
    losses = _finite(losses, "losses")
    if np.any(losses < 0):
        raise TariffError("losses must be non-negative")
    if a.sum() <= 0 or losses.sum() <= 0:
        raise TariffError("premium and loss totals must be positive")
    order = _stable_order(rel)
    prem_cum = np.cumsum(a[order])
    prem_cum /= prem_cum[-1]  # normalize by the running total so the curve ends at 1 exactly
    loss_cum = np.cumsum(losses[order])
    loss_cum /= loss_cum[-1]
    last_of_block = _last_of_block(rel[order])
    x = np.concatenate([[0.0], prem_cum[last_of_block]])
    y = np.concatenate([[0.0], loss_cum[last_of_block]])
    return x, y


def gini_index(x, y) -> float:
    """Twice the trapezoid area between the diagonal and the curve;
    positive when the curve lies below the diagonal."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or len(x) != len(y):
        raise TariffError("need at least two curve points")
    if np.any(np.diff(x) < 0):
        raise TariffError("curve points must be sorted by premium share")
    return float(2.0 * np.trapezoid(x - y, x))


def minmax_select(gini_matrix, model_ids=None) -> tuple[int, np.ndarray, bool]:
    """Row index whose maximum off-diagonal Gini is smallest.

    Returns (selected index or id, row maxima, tie flag); ties break to
    the first index.
    """
    g = np.asarray(gini_matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise TariffError("Gini matrix must be square")
    k = g.shape[0]
    if k == 1:
        row_max = np.array([-np.inf])
        selected = 0
    else:
        masked = g.copy()
        np.fill_diagonal(masked, -np.inf)
        row_max = masked.max(axis=1)
        selected = int(np.argmin(row_max))
    tie = bool(np.sum(row_max == row_max[selected]) > 1)
    if model_ids is not None:
        return model_ids[selected], row_max, tie
    return selected, row_max, tie


@dataclass(frozen=True)
class TariffComparison:
    """Pairwise tariff comparison over a common evaluation frame."""

    models: tuple[str, ...]
    gini: np.ndarray  # row = benchmark A, column = challenger B
    balance: dict[str, float]
    lorenz: dict[str, tuple[np.ndarray, np.ndarray]]
    selected: str
    row_maxima: np.ndarray
    tie: bool = False


def compare_tariffs(premiums: dict[str, np.ndarray], losses) -> TariffComparison:
    """Full comparison: balance ratios, per-model Lorenz curves, the
    pairwise ordered-Lorenz Gini matrix, and the min-max selection."""
    models = tuple(premiums)
    if not models:
        raise TariffError("no models to compare")
    premiums = {m: _finite(premiums[m], f"premiums of {m!r}") for m in models}
    losses = np.asarray(losses, dtype=float)
    k = len(models)
    gini = np.zeros((k, k))
    for i, a in enumerate(models):
        for j, b in enumerate(models):
            if i == j:
                continue
            x, y = ordered_lorenz(premiums[a], premiums[b], losses)
            gini[i, j] = gini_index(x, y)
    balance = {m: balance_ratio(premiums[m], losses) for m in models}
    lorenz = {}
    for m in models:
        # risk scores rise with the premiums and tie where they tie, so
        # the premiums' stable order is the scores' too
        order = _stable_order(premiums[m])
        lorenz[m] = _lorenz(_ecdf(premiums[m], order), order, losses)
    selected, row_max, tie = minmax_select(gini, list(models))
    return TariffComparison(models, gini, balance, lorenz, selected, row_max, tie)


# -- artifact emission ---------------------------------------------------


def write_balance_csv(comparison: TariffComparison, path) -> None:
    rows = [(m, comparison.balance[m]) for m in comparison.models]
    write_rows(path, ["model_id", "balance_ratio"], rows)


def write_gini_csv(comparison: TariffComparison, path) -> None:
    """Gini matrix with a flag marking each row's maximum and the
    min-max selected row."""
    rows = [(a, *gini, row_max, int(a == comparison.selected)) for a, gini, row_max in
            zip(comparison.models, comparison.gini.tolist(), comparison.row_maxima.tolist())]
    write_rows(path, ["benchmark", *comparison.models, "row_max", "selected"], rows)


def write_lorenz_csv(comparison: TariffComparison, path) -> None:
    rows = []
    for m in comparison.models:
        s, lc = comparison.lorenz[m]
        rows += [(m, *point) for point in zip(s.tolist(), lc.tolist())]
    write_rows(path, ["model_id", "s", "lorenz"], rows)
