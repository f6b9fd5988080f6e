"""Technical tariffs and model-lift comparison tools.

Premiums are frequency times severity predictions. `compare_tariffs`
judges tariffs on one frame: each model's balance ratio (total premium
over total loss) and Lorenz curve (the share of losses on the rows whose
premium's ECDF is at most s), the pairwise Gini matrix of ordered Lorenz
curves, and the min-max rule that picks the tariff whose worst
challenger Gini is smallest. `ordered_lorenz`, `gini_index` and
`minmax_select` are its pieces for one pair and for one matrix.

Premiums and losses must be finite and cover the same rows, the losses
must be non-negative with a positive total, and a pair's reference
premiums must be strictly positive; any other input raises a
`TariffError` that names its defect (which one, for an input with
several, is not promised). Rows are ordered by numpy's default sort,
kept as it is when no value repeats and otherwise with tied values put
back in row order, which for finite values is the order of a stable
sort. A curve's points are read where the runs of equal sorted values
end.
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
    del ranked  # each array of the frame's length goes before the next is made
    end = np.flatnonzero(last)
    end += 1
    if len(end) < len(values):
        offset = last[:-1].astype(np.intp)  # a cumsum of bools would cast into a temporary
        np.cumsum(offset, out=offset)
        offset *= len(values)
        order[1:] += offset
        order.sort()
        order[1:] -= offset
    return order, end


def _block_shares(values, order, last, total=None) -> np.ndarray:
    """0, then the running total of `values` taken in `order`, read at
    `last` (the last index of each block in that order), over `total`, or
    over the running total's end, so that the shares end at 1 exactly."""
    shares = np.zeros(len(last) + 1)
    running = values.take(order)
    np.cumsum(running, out=running)
    running.take(last, out=shares[1:], mode="clip")  # "raise" would buffer a copy
    shares[1:] /= running[-1] if total is None else total
    return shares


def technical_premium(freq_model, sev_model, dataset: Dataset) -> np.ndarray:
    """Per-row expected claim count times expected severity (per unit
    exposure; multiply by exposure for a policy-period premium)."""
    freq = _finite(freq_model.predict(dataset), "premium components")
    sev = _finite(sev_model.predict(dataset), "premium components")
    if np.any(freq <= 0) or np.any(sev <= 0):
        raise TariffError("premium components must be strictly positive")
    return freq * sev


def _losses(losses, premiums) -> np.ndarray:
    """`losses` checked for a comparison of the premium vectors `premiums`:
    finite, on the rows of every premium vector, non-negative, and of
    positive total."""
    losses = _finite(losses, "losses")
    if any(len(p) != len(losses) for p in premiums):
        raise TariffError("premiums and losses must cover the same rows")
    if np.any(losses < 0):
        raise TariffError("losses must be non-negative")
    if losses.sum() <= 0:
        raise TariffError("losses must sum to a positive total")
    return losses


def _reference(premiums: np.ndarray, what: str) -> None:
    if np.any(premiums <= 0):
        raise TariffError(f"{what} must be strictly positive")


def ordered_lorenz(premiums_a, premiums_b, losses) -> tuple[np.ndarray, np.ndarray]:
    """Ordered Lorenz curve of (premium share of A, loss share),
    accumulated in order of the relativity B/A.

    Rows with equal relativity accumulate as one block (one curve point
    per distinct relativity), which makes the B = A comparison land
    exactly on the diagonal.
    """
    a = _finite(premiums_a, "premiums")
    b = _finite(premiums_b, "premiums")
    losses = _losses(losses, (a, b))
    _reference(a, "reference premiums")
    return _ordered_lorenz(a, b, losses)


def _ordered_lorenz(a, b, losses):
    """`ordered_lorenz(a, b, losses)` of checked inputs."""
    order, end = _stable_order(b / a)
    end -= 1  # each block's last index
    return _block_shares(a, order, end), _block_shares(losses, order, end)


def _lorenz(premiums, losses, total):
    """The share of losses on the rows whose premium's ECDF is at most s,
    at each distinct ECDF value s = end / n: the blocks of tied premiums
    end there in the premiums' stable order."""
    order, end = _stable_order(premiums)
    s = np.zeros(len(end) + 1)
    np.divide(end, len(premiums), out=s[1:])
    end -= 1  # each block's last index
    return s, _block_shares(losses, order, end, total)


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

    Each premium vector and the losses are checked once. With more than
    one model each model is a pair's reference, so its premiums must be
    strictly positive; a lone model may price at zero."""
    models = tuple(premiums)
    if not models:
        raise TariffError("no models to compare")
    premiums = {m: _finite(premiums[m], f"premiums of {m!r}") for m in models}
    losses = _losses(losses, premiums.values())
    if len(models) > 1:
        for m in models:
            _reference(premiums[m], f"premiums of {m!r}")
    total = losses.sum()
    k = len(models)
    gini = np.zeros((k, k))
    for i, a in enumerate(models):
        for j, b in enumerate(models):
            if i != j:
                gini[i, j] = gini_index(*_ordered_lorenz(premiums[a], premiums[b], losses))
    balance = {m: float(premiums[m].sum() / total) for m in models}
    lorenz = {m: _lorenz(premiums[m], losses, total) for m in models}
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
