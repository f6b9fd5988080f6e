"""Premiums, lift curves, Gini matrices and tariff selection."""

import csv
import itertools

import numpy as np
import pytest

from freqsev.glm import Design, fit_glm
from freqsev.tariff import (
    TariffError,
    _stable_order,
    compare_tariffs,
    gini_index,
    minmax_select,
    ordered_lorenz,
    technical_premium,
    write_balance_csv,
    write_gini_csv,
    write_lorenz_csv,
)

from conftest import ConstantModel


def test_premium_is_frequency_times_severity(toy):
    premium = technical_premium(ConstantModel(0.1), ConstantModel(2000.0), toy)
    np.testing.assert_allclose(premium, 200.0)
    with pytest.raises(TariffError):
        technical_premium(ConstantModel(0.1), ConstantModel(-1.0), toy)


def _balance(premiums, losses):
    return compare_tariffs({"m": premiums}, losses).balance["m"]


def _lorenz(premiums, losses):
    return compare_tariffs({"m": premiums}, losses).lorenz["m"]


def _ecdf(premiums):
    """The risk scores: the premiums' ECDF at each premium, searched in the sorted premiums."""
    return np.searchsorted(np.sort(premiums), premiums, side="right") / len(premiums)


def test_balance_ratio_basics():
    assert _balance([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 1.0
    p = np.array([1.0, 4.0])
    losses = np.array([2.0, 3.0])
    assert abs(_balance(3 * p, losses) - 3 * _balance(p, losses)) < 1e-12
    with pytest.raises(TariffError, match="positive total"):
        _balance([1.0], [0.0])


def test_poisson_glm_premiums_balance(toy):
    model = fit_glm(toy, Design(("region",)), "poisson_log")
    premiums = model.predict(toy) * toy.exposure
    assert abs(_balance(premiums, toy.response) - 1.0) < 1e-6


def test_risk_scores_ecdf():
    """The Lorenz grid is s = 0 and each distinct risk score, the ECDF of
    the premiums, so it depends on their order alone."""
    s, _ = _lorenz([4.0, 1.0, 3.0, 2.0], np.ones(4))
    np.testing.assert_array_equal(s, [0.0, 0.25, 0.5, 0.75, 1.0])
    s, _ = _lorenz([7.0, 7.0, 7.0], np.ones(3))
    np.testing.assert_array_equal(s, [0.0, 1.0])
    p = np.random.default_rng(0).uniform(1, 5, 50)
    losses = np.random.default_rng(5).uniform(0, 1, 50)
    for got, expected in zip(_lorenz(p, losses), _lorenz(np.exp(p), losses)):
        np.testing.assert_array_equal(got, expected)


def test_lorenz_endpoints_and_concentration():
    premiums = np.array([1.0, 2.0, 3.0, 4.0])
    losses = np.array([0.0, 0.0, 0.0, 10.0])
    s, lc = _lorenz(premiums, losses)
    np.testing.assert_allclose(s, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(lc, [0.0, 0.0, 0.0, 0.0, 1.0])
    assert lc[-1] == 1.0


def test_lorenz_uninformative_scores_near_diagonal():
    rng = np.random.default_rng(1)
    n = 10_000
    premiums = rng.uniform(1.0, 2.0, n)
    losses = rng.uniform(0.0, 1.0, n)  # independent of premiums
    s, lc = _lorenz(premiums, losses)
    assert np.max(np.abs(lc - s)) < 0.05


_TIES = np.random.default_rng(4).choice([0.5, 1.25, 2.0, 3.0], 10_000)


@pytest.mark.parametrize("values", [
    _TIES,
    np.full(7, 2.5),
    np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0]),
    np.array([3.0]),
    np.array([]),
], ids=["ties", "all equal", "signed zeros", "one", "none"])
def test_stable_order_is_a_stable_argsort(values):
    """The default sort with ties put back in row order equals a stable
    sort, and its block ends are those of the runs of equal sorted values;
    the Lorenz grid of `compare_tariffs` read from it equals the distinct
    searched risk scores."""
    order, end = _stable_order(values)
    np.testing.assert_array_equal(order, np.argsort(values, kind="stable"))
    assert order.dtype == np.intp
    np.testing.assert_array_equal(end, np.cumsum(np.unique(values, return_counts=True)[1]))
    if len(values):
        s, _ = _lorenz(values, np.ones(len(values)))
        np.testing.assert_array_equal(s, np.concatenate([[0.0], np.unique(_ecdf(values))]))


def test_compare_tariffs_sorts_each_premium_vector_once(monkeypatch):
    """The Lorenz curves equal the reference curves of the searched risk
    scores, with tied, signed-zero and distinct premiums; each model's
    premiums are sorted once, and each pair's relativities once."""
    rng = np.random.default_rng(9)
    n = len(_TIES)
    premiums = {
        "ties": _TIES,
        "zeros": np.where(rng.random(n) < 0.3, rng.choice([0.0, -0.0], n), rng.uniform(1, 2, n)),
        "distinct": rng.uniform(1.0, 2.0, n),
    }
    premiums["zeros"][0] = 1.0  # the premium total stays positive
    losses = rng.gamma(0.5, 2.0, n) * (rng.random(n) < 0.2)
    sorts = []
    argsort = np.argsort

    def counted_argsort(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted_argsort)
    compare_tariffs({"ties": premiums["ties"], "distinct": premiums["distinct"]}, losses)
    assert len(sorts) == 2 + 2  # one per model, one per ordered pair
    monkeypatch.setattr(np, "argsort", argsort)
    for name, p in premiums.items():
        s, lc = compare_tariffs({name: p}, losses).lorenz[name]
        expected_s, expected_lc = _reference_lorenz_curve(_ecdf(p), losses)
        np.testing.assert_array_equal(s, expected_s, err_msg=name)
        np.testing.assert_array_equal(lc, expected_lc, err_msg=name)


def _reference_lorenz_curve(scores, losses):
    """The Lorenz curve of risk scores `scores`: the share of losses on the
    rows scored at most s, for s = 0 and each distinct score, by a stable
    sort and a search of every grid point."""
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    s = np.concatenate([[0.0], ranked[np.append(ranked[1:] != ranked[:-1], True)]])
    cum = np.concatenate([[0.0], np.cumsum(losses[order])]) / losses.sum()
    return s, cum[np.searchsorted(ranked, s, side="right")]


def _reference_ordered_lorenz(a, b, losses):
    """`ordered_lorenz` as a stable sort of the relativities."""
    rel = b / a
    order = np.argsort(rel, kind="stable")
    prem, loss = np.cumsum(a[order]), np.cumsum(losses[order])
    prem /= prem[-1]
    loss /= loss[-1]
    ranked = rel[order]
    last = np.append(ranked[1:] != ranked[:-1], True)
    return np.concatenate([[0.0], prem[last]]), np.concatenate([[0.0], loss[last]])


def _reference_comparison(premiums, losses):
    """`compare_tariffs` as one call per piece: each ordered pair's ordered
    Lorenz curve and Gini index, each model's balance ratio and the Lorenz
    curve of its risk scores (the ECDF searched in the sorted premiums)."""
    models = list(premiums)
    gini = np.zeros((len(models), len(models)))
    for (i, a), (j, b) in itertools.permutations(enumerate(models), 2):
        x, y = _reference_ordered_lorenz(premiums[a], premiums[b], losses)
        gini[i, j] = 2.0 * np.trapezoid(x - y, x)
    balance = {m: float(p.sum() / losses.sum()) for m, p in premiums.items()}
    lorenz = {m: _reference_lorenz_curve(_ecdf(p), losses) for m, p in premiums.items()}
    selected, row_max, tie = minmax_select(gini, models)
    return gini, balance, lorenz, selected, row_max, tie


_N = 2000
_RNG = np.random.default_rng(12)
_PREMIUMS = {
    "ties": _RNG.choice([0.5, 1.25, 2.0, 3.0], _N),
    "distinct": _RNG.uniform(1.0, 2.0, _N),
    "rounded": np.round(_RNG.uniform(1.0, 2.0, _N), 1),
    "zeros": np.where(_RNG.random(_N) < 0.3, _RNG.choice([0.0, -0.0], _N), _RNG.uniform(1, 2, _N)),
}
_LOSSES = np.where(_RNG.random(_N) < 0.2, _RNG.gamma(0.5, 2.0, _N), _RNG.choice([0.0, -0.0], _N))
_LOSSES[0] = 1.0


@pytest.mark.parametrize("names", [
    ("ties",), ("distinct",), ("rounded",), ("zeros",),
    ("ties", "distinct"), ("distinct", "ties"), ("rounded", "ties"),
    ("ties", "distinct", "rounded"), ("rounded", "distinct", "ties"),
])
def test_compare_tariffs_has_the_bits_of_one_call_per_piece(names):
    """Gini matrix, balance, Lorenz curves, row maxima, selection and tie
    flag are byte-equal to the pieces computed one call at a time, for
    tied, signed-zero and distinct premiums and losses holding signed
    zeros; so are a lone model's Lorenz curve with zero and negative
    premiums, and `ordered_lorenz` with zero challenger premiums."""
    premiums = {name: _PREMIUMS[name] for name in names}
    comparison = compare_tariffs(premiums, _LOSSES)
    gini, balance, lorenz, selected, row_max, tie = _reference_comparison(premiums, _LOSSES)
    assert comparison.gini.tobytes() == gini.tobytes()
    assert comparison.row_maxima.tobytes() == row_max.tobytes()
    assert (comparison.selected, comparison.tie, comparison.models) == (selected, tie, names)
    assert repr(comparison.balance) == repr(balance)
    for name in names:
        for got, expected in zip(comparison.lorenz[name], lorenz[name]):
            assert got.tobytes() == expected.tobytes(), name
    for name, p in premiums.items():
        shifted = p - 1.25  # premiums at, below and above 0
        for got, expected in zip(compare_tariffs({name: shifted}, _LOSSES).lorenz[name],
                                 _reference_lorenz_curve(_ecdf(shifted), _LOSSES)):
            assert got.tobytes() == expected.tobytes(), name
        for got, expected in zip(ordered_lorenz(_PREMIUMS["distinct"], p, _LOSSES),
                                 _reference_ordered_lorenz(_PREMIUMS["distinct"], p, _LOSSES)):
            assert got.tobytes() == expected.tobytes(), name


def _spoil(values, how):
    values = np.array(values)
    if how == "zero":
        values[3] = 0.0
    elif how == "negative":
        values[3] = -1.0
    elif how == "nan":
        values[3] = np.nan
    elif how == "all zero":
        values[:] = -0.0
    elif how == "zero sum":
        values[:] = 0.0
        values[1:3] = [1.0, -1.0]
    elif how == "longer":
        values = np.append(values, 1.0)
    elif how == "shorter":
        values = values[:-1]
    elif how == "empty":
        values = values[:0]
    return values


_DEFECTS = ("", "zero", "negative", "nan", "longer", "shorter", "empty")
_LOSS_DEFECTS = ("", "negative", "nan", "all zero", "zero sum", "longer", "shorter", "empty")


_ROWS = "premiums and losses must cover the same rows"


def _defects(premiums, losses):
    """The message naming each defect of a comparison's input."""
    named = set()
    for m, p in premiums.items():
        if not np.all(np.isfinite(p)):
            named.add(f"premiums of {m!r} must be finite")
        if len(premiums) > 1 and np.any(p <= 0):  # every model is a pair's reference
            named.add(f"premiums of {m!r} must be strictly positive")
        if len(p) != len(losses):
            named.add(_ROWS)
    if not np.all(np.isfinite(losses)):
        named.add("losses must be finite")
    if np.any(losses < 0):
        named.add("losses must be non-negative")
    if losses.sum() <= 0:
        named.add("losses must sum to a positive total")
    return named


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_defect_raises_a_tariff_error_naming_it(k):
    """Every combination of a defect in one model's premiums and one in
    the losses raises a `TariffError` that names one of the input's
    defects, never an error from inside numpy. Only a pair's reference
    premiums must be positive, so a lone model may price at zero."""
    base = {name: _PREMIUMS[name][:20] for name in ("distinct", "ties", "rounded")[:k]}
    seen = set()
    for spoilt, defect, loss_defect in itertools.product(range(k), _DEFECTS, _LOSS_DEFECTS):
        premiums = dict(base)
        name = list(base)[spoilt]
        premiums[name] = _spoil(premiums[name], defect)
        losses = _spoil(_LOSSES[:20], loss_defect)
        if defect == "empty" and loss_defect == "empty":
            premiums = {m: p[:0] for m, p in premiums.items()}
        named = _defects(premiums, losses)
        if not named:
            compare_tariffs(premiums, losses)
            continue
        with pytest.raises(TariffError) as raised:
            compare_tariffs(premiums, losses)
        assert str(raised.value) in named, (name, defect, loss_defect)
        seen.add(str(raised.value))
    every = {_ROWS, "losses must be finite", "losses must be non-negative",
             "losses must sum to a positive total"}
    every |= {f"premiums of {m!r} must be finite" for m in base}
    if k > 1:
        every |= {f"premiums of {m!r} must be strictly positive" for m in base}
    assert seen == every
    if k == 1:
        compare_tariffs({"zeros": _spoil(base["distinct"], "zero")}, _LOSSES[:20])


def test_losses_of_other_rows_are_a_tariff_error():
    """Losses longer or shorter than the premiums are refused by
    `ordered_lorenz` and by `compare_tariffs` of one and of two models."""
    premiums = np.array([1.0, 2.0, 3.0])
    for losses in (np.ones(4), np.ones(2)):
        for call in (lambda: ordered_lorenz(premiums, premiums[::-1], losses),
                     lambda: compare_tariffs({"a": premiums}, losses),
                     lambda: compare_tariffs({"a": premiums, "b": premiums[::-1]}, losses)):
            with pytest.raises(TariffError, match=_ROWS):
                call()
    with pytest.raises(TariffError, match=_ROWS):
        ordered_lorenz([1, 1], [1, 2], [1, 2, 3])
    with pytest.raises(TariffError, match=_ROWS):
        ordered_lorenz([1, 1], [1, 2, 3], [1, 2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_premiums_scores_and_losses_are_rejected(bad, toy):
    good = np.array([1.0, 2.0, 3.0])
    spoilt = np.array([1.0, bad, 3.0])
    with pytest.raises(TariffError, match="finite"):
        technical_premium(ConstantModel(bad), ConstantModel(2000.0), toy)
    with pytest.raises(TariffError, match="finite"):
        technical_premium(ConstantModel(0.1), ConstantModel(bad), toy)
    calls = [
        (ordered_lorenz, spoilt, good, good), (ordered_lorenz, good, spoilt, good),
        (ordered_lorenz, good, good, spoilt),
        (compare_tariffs, {"a": spoilt}, good), (compare_tariffs, {"a": good}, spoilt),
        (compare_tariffs, {"a": good, "b": good}, spoilt),
    ]
    for fn, *args in calls:
        with pytest.raises(TariffError, match="finite"):
            fn(*args)
    with pytest.raises(TariffError, match="premiums of 'b' must be finite"):
        compare_tariffs({"a": good, "b": spoilt}, good)


def test_relativities_and_errors():
    """`ordered_lorenz` accumulates rows by the relativity B/A (here 2 and
    0.5) and needs strictly positive reference premiums A only."""
    x, y = ordered_lorenz([1.0, 2.0], [2.0, 1.0], [1.0, 3.0])
    np.testing.assert_array_equal(x, [0.0, 2.0 / 3.0, 1.0])
    np.testing.assert_array_equal(y, [0.0, 0.75, 1.0])
    ordered_lorenz([1.0, 1.0], [0.0, -1.0], [1.0, 1.0])
    with pytest.raises(TariffError, match="reference premiums must be strictly positive"):
        ordered_lorenz([0.0, 1.0], [1.0, 1.0], [1.0, 1.0])


def test_ordered_lorenz_self_comparison_is_diagonal():
    rng = np.random.default_rng(2)
    a = rng.uniform(0.5, 3.0, 200)
    losses = rng.poisson(1.0, 200).astype(float) * rng.uniform(100, 500, 200)
    losses[0] = 1.0  # ensure positive total
    x, y = ordered_lorenz(a, 2.0 * a, losses)  # exact scaling keeps ties exact
    # all relativities equal -> a single block, exactly the diagonal
    np.testing.assert_array_equal(x, [0.0, 1.0])
    np.testing.assert_array_equal(y, [0.0, 1.0])
    assert gini_index(x, y) == 0.0


def test_ordered_lorenz_hand_accumulation():
    a = np.array([1.0, 1.0, 1.0, 1.0])
    b = np.array([4.0, 3.0, 2.0, 1.0])  # relativities 4, 3, 2, 1
    losses = np.array([1.0, 2.0, 3.0, 4.0])
    x, y = ordered_lorenz(a, b, losses)
    np.testing.assert_allclose(x, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(y, [0.0, 0.4, 0.7, 0.9, 1.0])
    assert x[-1] == 1.0 and y[-1] == 1.0


def test_gini_geometry():
    assert gini_index([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert gini_index([0.0, 1.0, 1.0], [0.0, 0.0, 1.0]) == 1.0
    assert gini_index([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]) == -1.0
    with pytest.raises(TariffError):
        gini_index([0.0], [0.0])
    with pytest.raises(TariffError):
        gini_index([1.0, 0.0], [0.0, 1.0])


def test_minmax_select_pattern():
    g = np.array([
        [0.0, 16.59, 1.0, 2.0],
        [0.0, 0.0, 16.48, 3.0],
        [-6.41, -7.0, 0.0, -8.0],
        [21.50, 0.0, 1.0, 0.0],
    ])
    selected, row_max, tie = minmax_select(g)
    np.testing.assert_allclose(row_max, [16.59, 16.48, -6.41, 21.50])
    assert selected == 2
    assert not tie
    named, _, _ = minmax_select(g, ["glm", "gbm", "cann", "ffnn"])
    assert named == "cann"


def test_minmax_single_model_and_permutation():
    selected, row_max, _ = minmax_select(np.zeros((1, 1)))
    assert selected == 0
    g = np.array([[0.0, 3.0, 1.0], [2.0, 0.0, 5.0], [-1.0, 0.5, 0.0]])
    base, _, _ = minmax_select(g)
    perm = np.array([2, 0, 1])
    permuted, _, _ = minmax_select(g[np.ix_(perm, perm)])
    assert perm[permuted] == base


def test_compare_tariffs_and_csv_emitters(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.uniform(0.5, 2.0, 100)
    premiums = {"modelA": a, "modelB": 2.0 * a}
    losses = rng.uniform(0.0, 3.0, 100)
    comparison = compare_tariffs(premiums, losses)
    np.testing.assert_allclose(comparison.gini, 0.0, atol=1e-12)
    assert comparison.selected == "modelA"
    assert comparison.tie
    assert abs(comparison.balance["modelB"] - 2 * comparison.balance["modelA"]) < 1e-12

    write_balance_csv(comparison, tmp_path / "balance.csv")
    write_gini_csv(comparison, tmp_path / "gini.csv")
    write_lorenz_csv(comparison, tmp_path / "lorenz.csv")
    with open(tmp_path / "gini.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["benchmark"] for r in rows] == ["modelA", "modelB"]
    assert [r["selected"] for r in rows] == ["1", "0"]
    with open(tmp_path / "balance.csv", newline="") as fh:
        balance_rows = list(csv.DictReader(fh))
    assert float(balance_rows[0]["balance_ratio"]) == comparison.balance["modelA"]
