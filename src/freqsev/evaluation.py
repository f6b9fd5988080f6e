"""Losses and the four-part model evaluation framework.

Deviance losses for frequency (Poisson) and severity (gamma) with the
`Family` object that owns each distribution's loss arithmetic, the
Diebold-Mariano predictive-accuracy test, Murphy diagrams of elementary
scores with dominance verdicts and calibration tables. All functions are
pure over immutable arrays and need only numpy, except the Diebold-Mariano
p-value, which loads `scipy.special` when it is first asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DM_ALPHA = 0.05
THETA_FILL = 501  # uniform points added to the Murphy grid's knots
DOMINANCE_TOL = 1e-12
CALIBRATION_BINS = 10


class EvaluationError(ValueError):
    pass


def _lgamma(x) -> np.ndarray:
    """log Γ of each element, one `math.lgamma` call per distinct value."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([math.lgamma(v) for v in values.tolist()])[inverse]


def _check_positive(a, what):
    if np.any(~np.isfinite(a)) or np.any(a <= 0):
        raise EvaluationError(f"{what} must be strictly positive and finite")


def poisson_deviance_contributions(predictions, responses, exposures) -> np.ndarray:
    """Per-observation Poisson deviance terms 2[y ln(y/(e f)) - (y - e f)].

    Predictions are rates per unit exposure; the exposure multiplies the
    prediction inside the loss. The y = 0 log term is 0 by convention.
    """
    f = np.asarray(predictions, dtype=float)
    y = np.asarray(responses, dtype=float)
    e = np.asarray(exposures, dtype=float)
    _check_positive(f, "predictions")
    _check_positive(e, "exposures")
    POISSON_LOG.check_response(y)
    return POISSON_LOG.terms(f, y, e)


def poisson_deviance(predictions, responses, exposures) -> float:
    """Mean Poisson deviance (the 2/n aggregation of the per-row terms)."""
    return float(np.mean(poisson_deviance_contributions(predictions, responses, exposures)))


def gamma_deviance_contributions(predictions, responses, weights=None) -> np.ndarray:
    """Per-observation gamma deviance terms 2 a[(y-f)/f - ln(y/f)] with
    claim-count weights a."""
    f = np.asarray(predictions, dtype=float)
    y = np.asarray(responses, dtype=float)
    a = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    _check_positive(f, "predictions")
    GAMMA_LOG.check_response(y)
    if np.any(a < 1):
        raise EvaluationError("severity weights must be >= 1")
    return GAMMA_LOG.terms(f, y, a)


def gamma_deviance(predictions, responses, weights=None) -> float:
    return float(np.mean(gamma_deviance_contributions(predictions, responses, weights)))


# -- response families -------------------------------------------------


class Family:
    """One log-link response distribution and all of its loss arithmetic.

    `w` is the observation weight throughout: the exposure for Poisson
    frequency, the claim count for gamma severity. Predictions `f` are
    exp(score) with the exposure not applied. Each family defines
    - `check_response(y, error)`;
    - `terms(f, y, w)`, the per-row deviance without input checks, and
      `contributions(f, y, w)`, the same with them;
    - `mean(y, w)`, the weighted mean response that starts every fit;
    - `gradient` and `hessian` of half the deviance in the log score,
      written into `out` when one is given;
    - for IRLS, `split_weight(w)` into a log offset and a prior weight,
      `working_weight`, `dispersion` and `loglik`;
    - for tree binning, `split_sums(ys, ws)` and `half_deviance(s1, s2)`:
      a node's deviance is a constant plus the half-deviance of its two
      sums, so a split's gain needs only prefix sums.
    """

    name = ""
    weight_attr = ""  # the Dataset attribute holding w
    severity = False  # responses are claim amounts from the severity view

    def obs_weight(self, dataset) -> np.ndarray:
        w = getattr(dataset, self.weight_attr)
        return np.ones(dataset.n) if w is None else np.asarray(w, dtype=float)

    def deviance(self, predictions, dataset) -> float:
        """Mean deviance of `predictions` on `dataset`."""
        w = self.obs_weight(dataset)
        return float(np.mean(self.contributions(predictions, dataset.response, w)))

    def network_loss(self, f, y, w):
        """Mean deviance and its gradient in the output u, where f = exp(u)."""
        return np.mean(self.terms(f, y, w)), -2.0 * self.gradient(f, y, w) / len(y)


class _PoissonLog(Family):
    name = "poisson_log"
    weight_attr = "exposure"

    def check_response(self, y, error=EvaluationError):
        if np.any(y < 0):
            raise error("responses must be non-negative")

    def terms(self, f, y, e):
        mu = e * f
        log_term = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
        return 2.0 * (log_term - (y - mu))

    def contributions(self, f, y, e):
        return poisson_deviance_contributions(f, y, e)

    def mean(self, y, e):
        return np.sum(y) / np.sum(e)

    def gradient(self, f, y, e, out=None):
        return np.subtract(y, np.multiply(e, f, out=out), out=out)

    def hessian(self, f, y, e, out=None):
        return np.multiply(e, f, out=out)

    def split_weight(self, e):
        return np.log(e), np.ones(len(e))

    def working_weight(self, mu, prior_w):
        return mu  # canonical link: weight = mean (incl. exposure)

    def dispersion(self, dev, n, k):
        return 1.0

    def loglik(self, y, mu, prior_w, dispersion):
        return float(np.sum(y * np.log(mu) - mu - _lgamma(y + 1)))

    def split_sums(self, ys, es):
        # node deviance = const - 2 Sy ln(Sy/Se)
        return np.cumsum(ys), np.cumsum(es)

    def half_deviance(self, sy, se):
        return -2.0 * np.where(sy > 0, sy * np.log(np.maximum(sy, 1e-300) / se), 0.0)


class _GammaLog(Family):
    name = "gamma_log"
    weight_attr = "weights"
    severity = True

    def check_response(self, y, error=EvaluationError):
        if np.any(~np.isfinite(y)) or np.any(y <= 0):
            raise error("responses must be strictly positive and finite")

    def terms(self, f, y, a):
        return 2.0 * a * ((y - f) / f - np.log(y / f))

    def contributions(self, f, y, a):
        return gamma_deviance_contributions(f, y, a)

    def mean(self, y, a):
        return np.sum(a * y) / np.sum(a)

    def gradient(self, f, y, a, out=None):
        out = np.divide(y, f, out=out)
        out -= 1.0
        return np.multiply(a, out, out=out)

    def hessian(self, f, y, a, out=None):
        return np.divide(np.multiply(a, y, out=out), f, out=out)

    def split_weight(self, a):
        return np.zeros(len(a)), a

    def working_weight(self, mu, prior_w):
        return prior_w  # log link: weight = prior weight

    def dispersion(self, dev, n, k):
        return dev / max(n - k, 1)  # deviance-based estimator

    def loglik(self, y, mu, prior_w, dispersion):
        shape = prior_w / dispersion
        rate = shape / mu
        return float(
            np.sum(shape * np.log(rate) - _lgamma(shape) + (shape - 1) * np.log(y) - rate * y)
        )

    def split_sums(self, ys, a):
        # node deviance = const + 2 Sa ln(Say/Sa)
        return np.cumsum(a), np.cumsum(a * ys)

    def half_deviance(self, sa, say):
        return 2.0 * sa * np.log(say / sa)


POISSON_LOG = _PoissonLog()
GAMMA_LOG = _GammaLog()
FAMILIES = {f.name: f for f in (POISSON_LOG, GAMMA_LOG)}


def get_family(name: str, error=EvaluationError) -> Family:
    """The family called `name`; raises `error` for an unknown name."""
    if not isinstance(name, str) or name not in FAMILIES:
        raise error(f"unknown family {name!r}")
    return FAMILIES[name]


# -- Diebold-Mariano ---------------------------------------------------


@dataclass(frozen=True)
class LossVector:
    """Per-observation loss contributions for one model on one test set."""

    contributions: np.ndarray
    model_id: str = ""

    def __post_init__(self):
        if np.any(~np.isfinite(self.contributions)):
            raise EvaluationError("loss contributions must be finite")


@dataclass(frozen=True)
class DMResult:
    statistic: float
    p_value: float
    verdict: str  # "reject" | "no_reject" | "identical"


def diebold_mariano(loss_a: LossVector, loss_b: LossVector) -> DMResult:
    """One-sided t-test on the loss differentials d_i = l_A,i - l_B,i.

    The alternative is predictive superiority of model B over model A;
    "reject" means p < 0.05. Plain sample variance, n-1 degrees of
    freedom, no autocorrelation correction (cross-sectional data). A
    constant nonzero differential has no variance: its statistic is
    +inf or -inf, with p-value 0 or 1.
    """
    from scipy.special import stdtr  # here, so that no fit or prediction loads scipy

    la, lb = loss_a.contributions, loss_b.contributions
    if len(la) != len(lb):
        raise EvaluationError("loss vectors must cover the same observations")
    n = len(la)
    if n < 2:
        raise EvaluationError("the Diebold-Mariano test needs at least 2 observations")
    d = la - lb
    if np.all(d == d[0]):
        if d[0] == 0:
            return DMResult(0.0, 1.0, "identical")
        statistic = math.copysign(math.inf, d[0])
    else:
        statistic = float(np.mean(d) / (np.std(d, ddof=1) / np.sqrt(n)))
    p_value = float(stdtr(n - 1, -statistic))
    verdict = "reject" if p_value < DM_ALPHA else "no_reject"
    return DMResult(statistic, p_value, verdict)


# -- Murphy diagrams ---------------------------------------------------


@dataclass(frozen=True)
class MurphyCurve:
    thetas: np.ndarray
    scores: np.ndarray
    model_id: str = ""


def _sample(values, what) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise EvaluationError(f"{what} must be a non-empty 1-D array")
    if not np.all(np.isfinite(a)):
        raise EvaluationError(f"{what} must be finite")
    return a


def default_theta_grid(predictions, responses) -> np.ndarray:
    """All distinct values of {y} and {f} (the knots where the elementary
    score changes slope) plus `THETA_FILL` uniform points for plotting."""
    f = _sample(predictions, "predictions")
    y = _sample(responses, "responses")
    knots = np.union1d(f, y)
    fill = np.linspace(knots[0], knots[-1], THETA_FILL)
    return np.union1d(knots, fill)


def _prefix_sums(v):
    """Prefix sums of `v` from 0 as a pair (s, c) whose sum s + c carries
    the rounding error of the running sum s (TwoSum per step), so that
    differences of far-apart prefixes keep their low-order bits."""
    s = np.concatenate(([0.0], np.cumsum(v)))
    z = s[1:] - s[:-1]
    c = np.cumsum((s[:-1] - (s[1:] - z)) + (v - z))
    return s, np.concatenate(([0.0], c))


def murphy_curve(predictions, responses, theta_grid=None, model_id: str = "") -> MurphyCurve:
    """Elementary score S_theta = mean |theta - y| 1{min(f,y) <= theta < max(f,y)}
    evaluated over the ascending grid, in O((n + m) log n) time and
    O(n + m) memory for n rows and m grid points.

    S is piecewise linear in theta. A row with y < f adds theta - y on
    [y, f), one with f < y adds y - theta on [f, y), one with f = y adds
    nothing. Each of the two groups sorts its interval ends once; binary
    searches of every theta in them count the rows active at theta (k),
    and compensated prefix sums of y in the same orders give their sum
    (Sy), so the group adds +-(theta k - Sy). The exact-zero rule: a
    group with k = 0 adds exactly 0.0, and rows with y = theta, which add
    0, are left out of k, so a theta outside every row's interval, or on
    the y end of each active one, scores exactly 0.0. Other scores carry
    an absolute rounding error of about one unit in the last place of
    theta, whatever n.
    """
    f = _sample(predictions, "predictions")
    y = _sample(responses, "responses")
    if len(f) != len(y):
        raise EvaluationError("predictions and responses must have equal length")
    thetas = default_theta_grid(f, y) if theta_grid is None else _sample(theta_grid, "theta grid")
    if np.any(np.diff(thetas) < 0):
        raise EvaluationError("theta grid must be sorted ascending")
    total = np.zeros(len(thetas))
    # (sign, rows, lower end, upper end, search side of the lower end)
    for sign, rows, lo, hi, side in ((1.0, y < f, y, f, "left"), (-1.0, f < y, f, y, "right")):
        lo, hi, yg = lo[rows], hi[rows], y[rows]
        by_lo, by_hi = np.argsort(lo), np.argsort(hi)
        a = np.searchsorted(lo[by_lo], thetas, side=side)
        b = np.searchsorted(hi[by_hi], thetas, side="right")
        (s_lo, c_lo), (s_hi, c_hi) = _prefix_sums(yg[by_lo]), _prefix_sums(yg[by_hi])
        k = a - b
        sum_y = (s_lo[a] - s_hi[b]) + (c_lo[a] - c_hi[b])
        total += np.where(k > 0, sign * (thetas * k - sum_y), 0.0)
    return MurphyCurve(thetas, total / len(y), model_id)


def dominance(curve_a: MurphyCurve, curve_b: MurphyCurve) -> str:
    """Pointwise comparison verdict, to `DOMINANCE_TOL`: 'A_dominates',
    'B_dominates', 'incomparable' or 'tied'."""
    if len(curve_a.thetas) != len(curve_b.thetas) or np.any(
        np.abs(curve_a.thetas - curve_b.thetas) > DOMINANCE_TOL
    ):
        raise EvaluationError("Murphy curves evaluated on different grids")
    diff = curve_a.scores - curve_b.scores
    a_leq = np.all(diff <= DOMINANCE_TOL)
    b_leq = np.all(diff >= -DOMINANCE_TOL)
    if a_leq and b_leq:
        return "tied"
    if a_leq:
        return "A_dominates"
    if b_leq:
        return "B_dominates"
    return "incomparable"


# -- calibration -------------------------------------------------------


@dataclass(frozen=True)
class CalibrationTable:
    edges: np.ndarray  # m+1 boundaries incl. catch-all outer bins
    mean_prediction: np.ndarray
    mean_response: np.ndarray
    counts: np.ndarray
    merged: np.ndarray  # True where an empty bin was merged rightward


def calibration_bins(predictions) -> np.ndarray:
    """Default bin spec: s_1 at the 10th and s_m at the 90th percentile,
    `CALIBRATION_BINS` equal bins in between, with open outer bins."""
    s1, sm = np.percentile(predictions, [10, 90])
    inner = np.linspace(s1, sm, CALIBRATION_BINS + 1)
    return np.concatenate([[-np.inf], inner, [np.inf]])


def calibration_curve(predictions, responses, bin_spec=None) -> CalibrationTable:
    """Per-bin mean prediction and mean response over the binned range of
    predictions. Empty bins are merged with their right neighbor and
    flagged."""
    f = np.asarray(predictions, dtype=float)
    y = np.asarray(responses, dtype=float)
    if len(f) != len(y):
        raise EvaluationError("predictions and responses must have equal length")
    edges = calibration_bins(f) if bin_spec is None else np.asarray(bin_spec, dtype=float)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise EvaluationError("bin edges must be two or more, strictly increasing")
    idx = np.clip(np.searchsorted(edges, f, side="right") - 1, 0, len(edges) - 2)
    counts = np.bincount(idx, minlength=len(edges) - 1)
    keep = counts > 0
    keep[-1] = True  # an empty last bin has no right neighbor to merge into
    merged = np.concatenate([[False], ~keep[:-1]])[keep]
    rows = np.split(np.argsort(idx, kind="stable"), np.cumsum(counts)[:-1])
    rows = [r for r, k in zip(rows, keep) if k]
    return CalibrationTable(
        np.concatenate([edges[:1], edges[1:][keep]]),
        np.asarray([np.mean(f[r]) if len(r) else np.nan for r in rows]),
        np.asarray([np.mean(y[r]) if len(r) else np.nan for r in rows]),
        counts[keep],
        merged,
    )

