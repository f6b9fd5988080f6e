"""Technical tariffs and model-lift comparison tools.

Premiums are frequency times severity predictions. Comparison works
through risk scores (ECDF of premiums), Lorenz curves, relativities and
ordered Lorenz curves, a pairwise Gini matrix, and the min-max rule that
picks the tariff whose worst challenger Gini is smallest.

Premiums, scores and losses must be finite; each function raises
`TariffError` on a NaN or infinite value. Rows are ordered by numpy's
default sort, kept as it is when no value repeats and otherwise with tied
values put back in row order, which for finite values is the order of a
stable sort. A curve's points are read where the runs of equal sorted
values end; only a Lorenz curve's s = 0 point is searched for.
`compare_tariffs` checks each input once and gives the numbers and the
first error of the separate calls it stands for.
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


def _stable_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.argsort(values, kind="stable")` for finite `values`, and one past
    the last index of each run of equal values in that order. The order is
    numpy's default sort, as it is when no sorted value repeats; otherwise
    tied values go back in row order by sorting the distinct keys
    `block * n + row`, where `block` numbers the runs, and taking each
    key's block offset off again."""
    order = np.argsort(values)
    ranked = values.take(order)
    last = np.ones(len(values), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=last[:-1])
    end = np.flatnonzero(last) + 1
    if len(end) < len(values):
        offset = np.cumsum(last[:-1]) * len(values)
        order[1:] += offset
        order.sort()
        order[1:] -= offset
    return order, end


def technical_premium(freq_model, sev_model, dataset: Dataset) -> np.ndarray:
    """Per-row expected claim count times expected severity (per unit
    exposure; multiply by exposure for a policy-period premium)."""
    freq = _finite(freq_model.predict(dataset), "premium components")
    sev = _finite(sev_model.predict(dataset), "premium components")
    if np.any(freq <= 0) or np.any(sev <= 0):
        raise TariffError("premium components must be strictly positive")
    return freq * sev


def _same_rows(premiums, losses: np.ndarray) -> None:
    if any(len(p) != len(losses) for p in premiums):
        raise TariffError("premiums and losses must cover the same rows")


def balance_ratio(premiums, observed_losses) -> float:
    """Total predicted over total observed losses."""
    premiums = _finite(premiums, "premiums")
    losses = _finite(observed_losses, "losses")
    _same_rows([premiums], losses)
    total = losses.sum()
    if total == 0:
        raise TariffError("observed losses sum to zero")
    return float(premiums.sum() / total)


def risk_scores(premiums) -> np.ndarray:
    """Empirical CDF of the premiums evaluated at each premium
    (right-continuous; tied premiums share the upper value)."""
    p = _finite(premiums, "premiums")
    if len(p) == 0:
        raise TariffError("no premiums given")
    order, end = _stable_order(p)  # end: rows at or below each block
    scores = np.empty(len(p))
    scores[order] = np.repeat(end, np.diff(end, prepend=0)) / len(p)
    return scores


def _nonnegative(losses: np.ndarray) -> None:
    if np.any(losses < 0):
        raise TariffError("losses must be non-negative")


def _loss_shares(losses: np.ndarray, order: np.ndarray, total, rows: np.ndarray) -> np.ndarray:
    """The share of the losses in the first r rows of `order`, for each r in `rows`."""
    return np.concatenate([[0.0], np.cumsum(losses.take(order))])[rows] / total


def lorenz_curve(scores, losses) -> tuple[np.ndarray, np.ndarray]:
    """Share of losses on policies with risk score <= s, for s = 0 and
    each distinct observed score."""
    r = _finite(scores, "scores")
    losses = _finite(losses, "losses")
    _nonnegative(losses)
    total = losses.sum()
    if total <= 0:
        raise TariffError("losses sum must be positive")
    order, end = _stable_order(r)
    s = r[order[end - 1]]  # each block's score, at its last row
    at_zero = np.concatenate([[0], end])[np.searchsorted(s, 0.0, side="right")]
    shares = _loss_shares(losses, order, total, np.concatenate([[at_zero], end]))
    return np.concatenate([[0.0], s]), shares


def _reference(premiums: np.ndarray) -> None:
    if np.any(premiums <= 0):
        raise TariffError("reference premiums must be strictly positive")


def relativities(premiums_a, premiums_b) -> np.ndarray:
    """Per-row premium ratio of model B over model A."""
    a = _finite(premiums_a, "premiums")
    b = _finite(premiums_b, "premiums")
    _reference(a)
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
    _nonnegative(losses)
    if a.sum() <= 0 or losses.sum() <= 0:
        raise TariffError("premium and loss totals must be positive")
    return _ordered_lorenz(a, rel, losses)


def _ordered_lorenz(a, rel, losses):
    """`ordered_lorenz(a, b, losses)` of checked inputs, from the relativities `rel = b / a`."""
    order, end = _stable_order(rel)
    prem_cum, loss_cum = np.cumsum(a.take(order)), np.cumsum(losses.take(order))
    # each block's shares, over the running totals so that the curve ends at 1 exactly
    x = np.concatenate([[0.0], prem_cum[end - 1] / prem_cum[-1]])
    y = np.concatenate([[0.0], loss_cum[end - 1] / loss_cum[-1]])
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
    pairwise ordered-Lorenz Gini matrix, and the min-max selection.

    Each premium vector and the losses are checked once, and the first
    error is the one that each pair's `ordered_lorenz`, then each model's
    `balance_ratio` and `lorenz_curve(risk_scores(...))`, would raise."""
    models = tuple(premiums)
    if not models:
        raise TariffError("no models to compare")
    premiums = {m: _finite(premiums[m], f"premiums of {m!r}") for m in models}
    first, *others = premiums.values()
    if others:  # the first pair's checks, then each other reference's
        _reference(first)
        losses = _finite(losses, "losses")
        _nonnegative(losses)
        if first.sum() <= 0 or losses.sum() <= 0:
            raise TariffError("premium and loss totals must be positive")
        for p in others:
            _reference(p)
        _same_rows(premiums.values(), losses)
    else:  # the balance ratio's checks, then the Lorenz curve's
        losses = _finite(losses, "losses")
        _same_rows(premiums.values(), losses)
        if losses.sum() == 0:
            raise TariffError("observed losses sum to zero")
        _nonnegative(losses)
    total = losses.sum()
    k, n = len(models), len(losses)
    gini = np.zeros((k, k))
    for i, a in enumerate(models):
        for j, b in enumerate(models):
            if i != j:
                rel = premiums[b] / premiums[a]
                gini[i, j] = gini_index(*_ordered_lorenz(premiums[a], rel, losses))
    balance = {m: float(premiums[m].sum() / total) for m in models}
    lorenz = {}
    for m in models:
        # risk scores rise with the premiums and tie where they tie, so the
        # premiums' stable order is theirs and their blocks end where the
        # premiums' do, at the score `end / n`; none is 0
        order, end = _stable_order(premiums[m])
        lorenz[m] = (np.concatenate([[0.0], end / n]),
                     _loss_shares(losses, order, total, np.concatenate([[0], end])))
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
