"""Deviances, Diebold-Mariano, Murphy diagrams, calibration."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import freqsev
from freqsev.evaluation import (
    EvaluationError,
    LossVector,
    calibration_curve,
    default_theta_grid,
    diebold_mariano,
    dominance,
    gamma_deviance,
    gamma_deviance_contributions,
    murphy_curve,
    poisson_deviance,
    poisson_deviance_contributions,
)


def test_poisson_deviance_oracles():
    assert poisson_deviance([1.0], [1.0], [1.0]) == 0.0
    assert abs(poisson_deviance([0.5], [0.0], [1.0]) - 1.0) < 1e-12
    assert abs(poisson_deviance([1.0, 1.0], [2.0, 0.0], [1.0, 1.0]) - 2 * np.log(2)) < 1e-12


def test_poisson_exposure_inside_loss():
    # rate f with exposure e behaves as mean e*f
    direct = poisson_deviance([0.25], [1.0], [2.0])
    equivalent = poisson_deviance([0.5], [1.0], [1.0])
    assert abs(direct - equivalent) < 1e-15


def test_poisson_rejects_bad_inputs():
    with pytest.raises(EvaluationError):
        poisson_deviance([0.0], [1.0], [1.0])
    with pytest.raises(EvaluationError):
        poisson_deviance([1.0], [-1.0], [1.0])


def test_gamma_deviance_oracles():
    assert gamma_deviance([2.0], [2.0]) == 0.0
    assert abs(gamma_deviance([1.0], [2.0]) - 2 * (1 - np.log(2))) < 1e-12
    single = gamma_deviance_contributions([1.0], [2.0], [1.0])
    double = gamma_deviance_contributions([1.0], [2.0], [2.0])
    np.testing.assert_allclose(double, 2 * single)


def test_dm_identical_and_direction():
    base = np.ones(50)
    result = diebold_mariano(LossVector(base), LossVector(base.copy()))
    assert result.verdict == "identical"
    assert result.p_value == 1.0

    rng = np.random.default_rng(0)
    d = 0.1 + 0.001 * rng.normal(size=100)
    better = diebold_mariano(LossVector(d), LossVector(np.zeros(100)))
    assert better.verdict == "reject"
    # oracle: classic one-sample t statistic of the differential series
    t_stat = d.mean() / (d.std(ddof=1) / np.sqrt(len(d)))
    assert abs(better.statistic - t_stat) < 1e-12
    flipped = diebold_mariano(LossVector(np.zeros(100)), LossVector(d))
    assert abs(flipped.statistic + better.statistic) < 1e-12
    assert flipped.verdict == "no_reject"


def test_dm_needs_two_observations():
    for n in (0, 1):
        with pytest.raises(EvaluationError):
            diebold_mariano(LossVector(np.ones(n)), LossVector(np.zeros(n)))


def test_dm_constant_differential_is_defined():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worse = diebold_mariano(LossVector(np.full(30, 0.1)), LossVector(np.zeros(30)))
        better = diebold_mariano(LossVector(np.zeros(30)), LossVector(np.full(30, 0.1)))
    assert (worse.statistic, worse.p_value, worse.verdict) == (np.inf, 0.0, "reject")
    assert (better.statistic, better.p_value, better.verdict) == (-np.inf, 1.0, "no_reject")


@pytest.mark.parametrize("n", [2, 3, 30, 1000, 100_000])
def test_dm_p_value_is_the_student_t_tail(n):
    """The p-value equals scipy.stats' Student-t survival function at the
    statistic with n - 1 degrees of freedom, bit for bit, from the
    constant differentials' 0 and 1 through the finite tails."""
    rng = np.random.default_rng(n)
    base = rng.gamma(2.0, size=n)
    pairs = [(np.full(n, 0.1), np.zeros(n)), (np.zeros(n), np.full(n, 0.1))]
    for shift in (-1.0, -0.05, -1e-3, 0.0, 1e-3, 0.05, 1.0):
        pairs.append((base + shift + rng.normal(size=n), base))
    for loss_a, loss_b in pairs:
        result = diebold_mariano(LossVector(loss_a), LossVector(loss_b))
        assert result.p_value == float(stats.t.sf(result.statistic, n - 1)), (n, result)


NUMPY_ONLY_RUN = """
import importlib, pkgutil, sys
from dataclasses import replace
import numpy as np
import freqsev
for module in pkgutil.iter_modules(freqsev.__path__):
    importlib.import_module("freqsev." + module.name)
from freqsev import _workers, pipeline
from freqsev.data import severity_view, stratified_folds
from freqsev.evaluation import LossVector, diebold_mariano
from freqsev.gbm import fit_gbm
from freqsev.glm import BinningRule, Design, fit_glm
from conftest import small_portfolio

portfolio = small_portfolio(n=600, seed=2, freq_intercept=-0.5)
ds = portfolio.dataset
design = Design(("age", "region"), binning={"age": BinningRule("age", (30.0, 50.0))})
fit_glm(ds, design, "poisson_log")
fit_glm(severity_view(ds, portfolio.claims), design, "gamma_log")
fit_gbm(ds, "poisson_log", n_trees=10, depth=2).predict(ds)
_workers._usable_cpus = lambda: 1  # folds in this process, where sys.modules shows them
pipeline.PRESETS["desk"] = replace(pipeline.DESK, grid_size=2, net_max_epochs=2, ae_max_epochs=5,
                                   gbm_tree_grid=(10,), gbm_depth_grid=(1,))
config = pipeline.RunConfig(data_path="memory", schema_path="memory", seed=1,
                            families=tuple(pipeline.MODEL_FAMILIES), outdir="run")
pipeline.run_pipeline(config, ds, stratified_folds(ds, seed=0))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
diebold_mariano(LossVector(np.arange(3.0)), LossVector(np.ones(3)))
print("scipy.special" in sys.modules)
"""


def test_only_the_dm_p_value_loads_scipy(tmp_path):
    """Importing every freqsev module, fitting Poisson and gamma GLMs and a
    GBM, and a run of every model family load no scipy module; the
    Diebold-Mariano p-value then loads scipy.special."""
    paths = [str(Path(freqsev.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["[]", "True"]


def test_murphy_single_observation():
    curve = murphy_curve([1.0], [0.0], theta_grid=[0.5])
    assert curve.scores[0] == 0.5


def test_murphy_zero_outside_interval():
    curve = murphy_curve([1.0, 2.0], [0.5, 3.0], theta_grid=[0.1, 0.3, 3.5, 4.0])
    np.testing.assert_array_equal(curve.scores, 0.0)
    perfect = murphy_curve([1.0, 2.0], [1.0, 2.0], theta_grid=[0.5, 1.5, 2.5])
    np.testing.assert_array_equal(perfect.scores, 0.0)


def _dense_murphy_reference(f, y, thetas):
    """The elementary score straight from its definition, one theta x row
    cell at a time."""
    f, y, thetas = (np.asarray(a, dtype=float) for a in (f, y, thetas))
    lo, hi = np.minimum(f, y), np.maximum(f, y)
    th = thetas[:, None]
    active = (lo[None, :] <= th) & (th < hi[None, :])
    return np.mean(np.abs(th - y[None, :]) * active, axis=1)


def _with_grid(f, y, between=()):
    """(f, y, grid): every interval end, the given points and one point
    below and one above all intervals."""
    knots = np.union1d(f, y)
    extra = np.concatenate([between, [knots[0] - 1.0, knots[-1] + 1.0]])
    return np.asarray(f, dtype=float), np.asarray(y, dtype=float), np.union1d(knots, extra)


@st.composite
def _murphy_inputs(draw):
    """Poisson counts or gamma-scale claim amounts, with ties f = y and
    duplicates drawn from a small shared pool. The amounts stay below
    4,096: scores carry an absolute rounding error of about one unit in
    the last place of theta, which there is below the 1e-12 floor."""
    n = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        response = st.integers(min_value=0, max_value=6).map(float)
        prediction = st.floats(min_value=0.01, max_value=6.0)
    else:
        response = prediction = st.floats(min_value=1.0, max_value=4000.0)
    pool = draw(st.lists(response, min_size=1, max_size=5))
    shared = st.sampled_from(pool)
    y = draw(st.lists(st.one_of(shared, response), min_size=n, max_size=n))
    f = draw(st.lists(st.one_of(shared, prediction), min_size=n, max_size=n))
    lo, hi = min(f + y), max(f + y)
    return _with_grid(f, y, draw(st.lists(st.floats(min_value=lo, max_value=hi), max_size=20)))


@settings(max_examples=300, deadline=None)
@given(_murphy_inputs())
# larger amounts, whose plain running sums drop low bits that the prefix sums keep
@example(_with_grid([63349.358, 23349.886, 23349.886], [63349.886, 23349.886, 60779.073]))
# at theta = 7.348 the only active row has y = theta and must add exactly 0
@example(_with_grid([4.148, 9.187], [3.855, 7.348]))
def test_murphy_matches_dense_reference(inputs):
    f, y, thetas = inputs
    scores = murphy_curve(f, y, thetas).scores
    ref = _dense_murphy_reference(f, y, thetas)
    assert np.all(scores >= 0.0)
    np.testing.assert_array_equal(scores[ref == 0.0], 0.0)
    assert np.all(np.abs(scores - ref) <= 1e-12 * np.maximum(ref, 1.0))


def test_murphy_default_grid_matches_reference():
    rng = np.random.default_rng(4)
    f = rng.uniform(1.0, 4000.0, 300)
    y = np.where(rng.random(300) < 0.2, f, rng.uniform(1.0, 4000.0, 300))
    curve = murphy_curve(f, y)
    np.testing.assert_array_equal(curve.thetas, default_theta_grid(f, y))
    ref = _dense_murphy_reference(f, y, curve.thetas)
    assert np.all(np.abs(curve.scores - ref) <= 1e-12 * np.maximum(ref, 1.0))


@pytest.mark.parametrize(
    "f, y",
    [
        ([0.5], [0.0, 1.0, 2.0]),  # would broadcast one prediction over three rows
        ([[0.5, 1.0]], [[0.0, 1.0]]),
        ([], []),
        ([np.nan, 1.0], [0.0, 1.0]),
        ([0.5, 1.0], [np.inf, 1.0]),
    ],
    ids=["unequal-length", "two-dimensional", "empty", "nan-prediction", "inf-response"],
)
def test_murphy_rejects_bad_samples(f, y):
    with pytest.raises(EvaluationError):
        murphy_curve(f, y, theta_grid=[0.5])
    with pytest.raises(EvaluationError):
        murphy_curve(f, y)


@pytest.mark.parametrize(
    "f, y",
    [([], [1.0]), ([1.0], []), ([np.nan], [1.0]), ([1.0], [-np.inf]), ([[1.0]], [1.0])],
    ids=["empty-predictions", "empty-responses", "nan-prediction", "inf-response", "2-D"],
)
def test_default_grid_rejects_bad_samples(f, y):
    with pytest.raises(EvaluationError):
        default_theta_grid(f, y)


@pytest.mark.parametrize(
    "grid", [[], [0.5, np.nan], [np.inf], [1.0, 0.5], [[0.5]]],
    ids=["empty", "nan", "inf", "descending", "2-D"],
)
def test_murphy_rejects_bad_grids(grid):
    with pytest.raises(EvaluationError):
        murphy_curve([1.0, 2.0], [0.0, 3.0], theta_grid=grid)


def test_murphy_memory_is_linear_in_rows_and_grid():
    """100,000 rows on a grid of about as many points stay within a bound
    linear in n + m that a theta x row mask, even one cut into chunks of
    5 million cells, breaks."""
    import tracemalloc

    rng = np.random.default_rng(8)
    n = 100_000
    f = rng.uniform(0.01, 0.5, n)
    y = rng.poisson(f).astype(float)
    thetas = default_theta_grid(f, y)
    m = len(thetas)
    assert m > n
    tracemalloc.start()
    try:
        murphy_curve(f, y, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * (n + m), peak


def test_default_grid_contains_knots():
    grid = default_theta_grid([1.0, 2.0], [0.5, 3.0])
    for knot in (0.5, 1.0, 2.0, 3.0):
        assert knot in grid


def test_dominance_verdicts():
    from freqsev.evaluation import MurphyCurve

    thetas = np.array([0.0, 1.0, 2.0])
    a = MurphyCurve(thetas, np.array([0.1, 0.2, 0.3]))
    b = MurphyCurve(thetas, np.array([0.1, 0.25, 0.3]))
    assert dominance(a, a) == "tied"
    assert dominance(a, b) == "A_dominates"
    assert dominance(b, a) == "B_dominates"
    c = MurphyCurve(thetas, np.array([0.2, 0.1, 0.3]))
    assert dominance(a, c) == "incomparable"
    with pytest.raises(EvaluationError):
        dominance(a, MurphyCurve(thetas[:2], np.zeros(2)))


def test_dominance_on_knots_extends_between_knots():
    # S_theta is piecewise linear between knots, so knot-grid dominance
    # extends to random probes
    rng = np.random.default_rng(1)
    y = rng.poisson(1.0, 40).astype(float)
    fa = np.maximum(0.05, y * 0.9 + 0.05)
    fb = rng.uniform(0.05, 3.0, 40)
    knots = np.union1d(np.union1d(fa, fb), y)
    ca = murphy_curve(fa, y, knots)
    cb = murphy_curve(fb, y, knots)
    if dominance(ca, cb) == "A_dominates":
        probes = np.sort(rng.uniform(knots[0], knots[-1], 200))
        pa = murphy_curve(fa, y, probes)
        pb = murphy_curve(fb, y, probes)
        assert np.all(pa.scores <= pb.scores + 1e-12)


def test_calibration_constant_predictor():
    y = np.array([0.0, 1.0, 2.0, 1.0])
    table = calibration_curve(np.full(4, 0.5), y, bin_spec=[0.0, 1.0])
    assert len(table.counts) == 1
    assert table.mean_response[0] == y.mean()


def test_calibration_merges_empty_bins():
    preds = np.array([0.1, 0.9])
    table = calibration_curve(preds, np.array([0.0, 1.0]), bin_spec=[0.0, 0.2, 0.5, 1.0])
    assert table.counts.sum() == 2
    assert table.merged.any()


def test_calibration_monte_carlo():
    rng = np.random.default_rng(3)
    f = rng.uniform(0.5, 5.0, 20_000)
    y = rng.poisson(f).astype(float)
    table = calibration_curve(f, y)
    for b in range(len(table.counts)):
        if table.counts[b] < 50:
            continue
        tol = 3 * np.sqrt(table.mean_prediction[b] / table.counts[b])
        assert abs(table.mean_response[b] - table.mean_prediction[b]) < tol


def test_calibration_custom_bin_spec():
    # fixed-width severity-style bins are honored when configured
    edges = np.arange(22_000.0, 25_001.0, 150.0)
    preds = np.linspace(22_010, 24_900, 300)
    table = calibration_curve(preds, preds, bin_spec=edges)
    assert table.counts.sum() == 300


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=1000),
)
def test_poisson_deviance_nonnegative_and_shuffle_invariant(preds, seed):
    f = np.asarray(preds)
    rng = np.random.default_rng(seed)
    y = rng.poisson(f).astype(float)
    e = np.ones(len(f))
    d = poisson_deviance(f, y, e)
    assert d >= 0.0
    perm = rng.permutation(len(f))
    assert abs(d - poisson_deviance(f[perm], y[perm], e[perm])) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=20))
def test_gamma_deviance_zero_iff_exact(values):
    y = np.asarray(values)
    assert gamma_deviance(y, y) == 0.0
    assert gamma_deviance(y + 0.1, y) > 0.0
