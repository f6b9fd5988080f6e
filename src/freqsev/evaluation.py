"""Losses and the four-part model evaluation framework.

Deviance losses for frequency (Poisson) and severity (gamma) with the
`Family` object that owns each distribution's loss arithmetic, the
Diebold-Mariano predictive-accuracy test, Murphy diagrams of elementary
scores with dominance verdicts, calibration tables and prediction
histograms. All functions are pure over immutable arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import gammaln

DM_ALPHA = 0.05


class EvaluationError(ValueError):
    pass


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
    - `gradient` and `hessian` of half the deviance in the log score;
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

    def gradient(self, f, y, e):
        return y - e * f

    def hessian(self, f, y, e):
        return e * f

    def split_weight(self, e):
        return np.log(e), np.ones(len(e))

    def working_weight(self, mu, prior_w):
        return mu  # canonical link: weight = mean (incl. exposure)

    def dispersion(self, dev, n, k):
        return 1.0

    def loglik(self, y, mu, prior_w, dispersion):
        return float(np.sum(y * np.log(mu) - mu - gammaln(y + 1)))

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

    def gradient(self, f, y, a):
        return a * (y / f - 1.0)

    def hessian(self, f, y, a):
        return a * y / f

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
            np.sum(shape * np.log(rate) - gammaln(shape) + (shape - 1) * np.log(y) - rate * y)
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
    fold_id: object = None

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
    freedom, no autocorrelation correction (cross-sectional data).
    """
    la, lb = loss_a.contributions, loss_b.contributions
    if len(la) != len(lb):
        raise EvaluationError("loss vectors must cover the same observations")
    d = la - lb
    if np.all(d == 0):
        return DMResult(0.0, 1.0, "identical")
    n = len(d)
    se = np.std(d, ddof=1) / np.sqrt(n)
    statistic = float(np.mean(d) / se)
    p_value = float(stats.t.sf(statistic, df=n - 1))
    verdict = "reject" if p_value < DM_ALPHA else "no_reject"
    return DMResult(statistic, p_value, verdict)


# -- Murphy diagrams ---------------------------------------------------


@dataclass(frozen=True)
class MurphyCurve:
    thetas: np.ndarray
    scores: np.ndarray
    model_id: str = ""


def default_theta_grid(predictions, responses, n_fill: int = 501) -> np.ndarray:
    """All distinct values of {y} and {f} (the knots where the elementary
    score changes slope) plus uniform fill points for plotting."""
    knots = np.union1d(np.unique(predictions), np.unique(responses))
    fill = np.linspace(knots[0], knots[-1], n_fill)
    return np.union1d(knots, fill)


def murphy_curve(predictions, responses, theta_grid=None, model_id: str = "") -> MurphyCurve:
    """Elementary score S_theta = mean |theta - y| 1{min(f,y) <= theta < max(f,y)}
    evaluated over the grid."""
    f = np.asarray(predictions, dtype=float)
    y = np.asarray(responses, dtype=float)
    if theta_grid is None:
        theta_grid = default_theta_grid(f, y)
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.size == 0:
        raise EvaluationError("theta grid is empty")
    if np.any(np.diff(thetas) < 0):
        raise EvaluationError("theta grid must be sorted ascending")
    lo = np.minimum(f, y)
    hi = np.maximum(f, y)
    scores = np.empty(len(thetas))
    # chunk over theta to bound the n_obs x n_theta intermediate
    chunk = max(1, int(5_000_000 / max(len(y), 1)))
    for s in range(0, len(thetas), chunk):
        th = thetas[s : s + chunk, None]
        active = (lo[None, :] <= th) & (th < hi[None, :])
        scores[s : s + chunk] = np.mean(np.abs(th - y[None, :]) * active, axis=1)
    return MurphyCurve(thetas, scores, model_id)


def dominance(curve_a: MurphyCurve, curve_b: MurphyCurve, tol: float = 1e-12) -> str:
    """Pointwise comparison verdict: 'A_dominates', 'B_dominates',
    'incomparable' or 'tied'."""
    if len(curve_a.thetas) != len(curve_b.thetas) or np.any(
        np.abs(curve_a.thetas - curve_b.thetas) > tol
    ):
        raise EvaluationError("Murphy curves evaluated on different grids")
    diff = curve_a.scores - curve_b.scores
    a_leq = np.all(diff <= tol)
    b_leq = np.all(diff >= -tol)
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


def calibration_bins(predictions, n_bins: int = 10) -> np.ndarray:
    """Default bin spec: s_1 at the 10th and s_m at the 90th percentile,
    equally spaced splitpoints in between, with open outer bins."""
    s1, sm = np.percentile(predictions, [10, 90])
    inner = np.linspace(s1, sm, n_bins + 1)
    return np.concatenate([[-np.inf], inner, [np.inf]])


def calibration_curve(predictions, responses, bin_spec=None) -> CalibrationTable:
    """Per-bin mean prediction and mean response over the binned range of
    predictions. Empty bins are merged with their right neighbor and
    flagged."""
    f = np.asarray(predictions, dtype=float)
    y = np.asarray(responses, dtype=float)
    edges = calibration_bins(f) if bin_spec is None else np.asarray(bin_spec, dtype=float)
    if np.any(np.diff(edges) <= 0):
        raise EvaluationError("bin edges must be strictly increasing")
    idx = np.clip(np.searchsorted(edges, f, side="right") - 1, 0, len(edges) - 2)
    kept_edges = [edges[0]]
    mean_pred, mean_resp, counts, merged = [], [], [], []
    pending = np.zeros(len(f), dtype=bool)
    was_merged = False
    for b in range(len(edges) - 1):
        mask = pending | (idx == b)
        if not mask.any() and b < len(edges) - 2:
            # merge rightward: extend the next bin to cover this range
            pending = mask
            was_merged = True
            continue
        kept_edges.append(edges[b + 1])
        if mask.any():
            mean_pred.append(float(np.mean(f[mask])))
            mean_resp.append(float(np.mean(y[mask])))
        else:
            mean_pred.append(np.nan)
            mean_resp.append(np.nan)
        counts.append(int(mask.sum()))
        merged.append(was_merged)
        pending = np.zeros(len(f), dtype=bool)
        was_merged = False
    return CalibrationTable(
        np.asarray(kept_edges),
        np.asarray(mean_pred),
        np.asarray(mean_resp),
        np.asarray(counts),
        np.asarray(merged),
    )


def prediction_histogram(predictions, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts per fixed-width bin, as plot data (edges, counts)."""
    if bin_width <= 0:
        raise EvaluationError("bin_width must be positive")
    f = np.asarray(predictions, dtype=float)
    lo = np.floor(f.min() / bin_width) * bin_width
    hi = np.ceil(f.max() / bin_width) * bin_width
    n_bins = max(1, int(round((hi - lo) / bin_width)))
    edges = lo + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(f, bins=edges)
    return edges, counts


# -- artifact emission -------------------------------------------------


def write_dm_json(verdicts: dict[str, DMResult], path) -> None:
    payload = {
        key: {"statistic": r.statistic, "p_value": r.p_value, "verdict": r.verdict}
        for key, r in verdicts.items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
