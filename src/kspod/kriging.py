"""Ordinary kriging with a squared-exponential correlation function.

Length-scale parameters are tuned by maximizing the profile log-likelihood
(process mean and variance eliminated analytically), using a multi-start
coordinate search in log space followed by local refinement. One search
serves a single dataset or a block of datasets on the same inputs: the
block shares one length-scale vector, while each dataset keeps its own
mean and variance. Every correlation matrix is factorized by one LAPACK
Cholesky helper, and the search and the closed-form fit at fixed
length-scales share one least-squares step; the fit factorizes each
distinct length-scale once and solves its datasets as one block.
Prediction is the closed-form conditional mean.
Indicator-vector kriging with one shared isotropic parameter provides
per-case blending weights whose raw values sum to one identically.
"""

import logging
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import optimize
from scipy.linalg.lapack import dpotrf, dpotrs

from ._binio import MAX_ELEMENTS, Reader, Writer
from .errors import DimensionOverflowError, FitError, IllConditionedError, NonFiniteDataError

__all__ = [
    "CorrelationParams",
    "FitOptions",
    "IndicatorKriging",
    "KrigingModel",
    "correlation",
    "fit",
    "fit_fixed",
    "fit_indicator_theta",
    "fit_theta",
    "indicator_weights",
    "predict",
    "read_model",
    "write_model",
]

MAGIC = "KSGP1"

DEFAULT_NUGGET = 1e-8
DEFAULT_LOG_THETA_BOUNDS = (-6.0, 6.0)

# Fixed table of multistart points in the unit box; scaled to the log-theta
# bounds at fit time. Frozen so repeated fits are bit-reproducible.
_START_TABLE = np.random.default_rng(20240311).uniform(size=(32, 16))

_HUGE = 1e300

_log = logging.getLogger("kspod")


@dataclass(frozen=True)
class CorrelationParams:
    """Squared-exponential parameters: per-dimension theta plus a nugget.

    The correlation of two points is exp(-sum_k theta_k * dx_k^2); the
    nugget inflates the correlation-matrix diagonal for conditioning.
    """

    theta: np.ndarray
    nugget: float = DEFAULT_NUGGET

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta must be a nonempty vector")
        if np.any(~np.isfinite(theta)) or np.any(theta <= 0.0):
            raise ValueError("theta entries must be positive and finite")
        if not np.isfinite(self.nugget) or self.nugget < 0.0:
            raise ValueError("nugget must be nonnegative")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    @classmethod
    def isotropic(cls, theta: float, dims: int,
                  nugget: float = DEFAULT_NUGGET) -> "CorrelationParams":
        return cls(np.full(dims, float(theta)), nugget)


@dataclass(frozen=True)
class FitOptions:
    nugget: float = DEFAULT_NUGGET
    log_theta_bounds: tuple = DEFAULT_LOG_THETA_BOUNDS
    restarts: int = 8

    def __post_init__(self):
        if not (np.isfinite(self.nugget) and self.nugget >= 0.0):
            raise ValueError("nugget must be finite and nonnegative")
        lo, hi = self.log_theta_bounds
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("log_theta_bounds must be finite with lower < upper")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True)
class KrigingModel:
    """Fitted ordinary-kriging model; immutable, safe for concurrent predicts."""

    inputs: np.ndarray            # (n, d)
    obs: np.ndarray               # (n,)
    params: CorrelationParams
    mu_hat: float
    sigma2_hat: float
    alpha: np.ndarray = dataclass_field(repr=False, default=None)  # R^-1 (y - mu 1)

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        obs = np.atleast_1d(np.asarray(self.obs, dtype=float))
        if obs.shape != (inputs.shape[0],):
            raise ValueError("observation count must match input rows")
        if self.params.theta.size != inputs.shape[1]:
            raise ValueError("theta dimension must match input columns")
        alpha = self.alpha
        if alpha is None:
            alpha = fit_fixed(inputs, self.params.theta, obs,
                              self.params.nugget, mu=self.mu_hat)[2]
        else:
            alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        for arr in (inputs, obs, alpha):
            arr.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dims(self) -> int:
        return self.inputs.shape[1]


def correlation(x_i, x_j, params: CorrelationParams) -> float:
    """Squared-exponential correlation of two points."""
    x_i = np.atleast_1d(np.asarray(x_i, dtype=float))
    x_j = np.atleast_1d(np.asarray(x_j, dtype=float))
    if x_i.shape != x_j.shape or x_i.size != params.theta.size:
        raise ValueError("point dimensions do not match")
    return float(np.exp(-np.sum(params.theta * (x_i - x_j) ** 2)))


def _sq_diffs(x_pts: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences, shape (n, n, d)."""
    return (x_pts[:, None, :] - x_pts[None, :, :]) ** 2


def _corr_vector(x_pts: np.ndarray, x_new: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return np.exp(-((x_pts - x_new) ** 2) @ theta)


def _checked(x_pts, ys=(), axis=0):
    """Input rows (n, d) and datasets with n entries along ``axis``, all finite."""
    x_pts = np.atleast_2d(np.asarray(x_pts, dtype=float))
    ys = [np.asarray(y, dtype=float) for y in ys]
    if any(y.ndim == 0 or y.shape[axis] != x_pts.shape[0] for y in ys):
        raise ValueError("observation count must match input rows")
    if not all(np.isfinite(a).all() for a in (x_pts, *ys)):
        raise ValueError("inputs and observations must be finite")
    return x_pts, ys


def _cholesky(diffs, theta, nugget):
    """Lower Cholesky factor of R(theta) + nugget I from the (n, n, d) squared
    input differences, or None when it is not positive definite. LAPACK is
    called directly: callers check their inputs, so R is finite."""
    n = diffs.shape[0]
    rmat = np.exp(-(diffs @ theta))
    rmat.flat[::n + 1] += nugget
    factor, info = dpotrf(rmat, lower=1, clean=0)
    return factor if info == 0 else None


def _cholesky_or_raise(diffs, theta, nugget):
    factor = _cholesky(diffs, theta, nugget)
    if factor is None:
        raise IllConditionedError(
            "correlation matrix is not positive definite; distinct inputs "
            "or a nugget are required"
        )
    return factor


def _mean_weights(factor):
    """u = R^-1 1 and 1'u from the lower Cholesky factor of R."""
    ones = np.ones(factor.shape[0])
    u = dpotrs(factor, ones, lower=1)[0]
    return u, u @ ones


def _gls(factor, y, mu=None):
    """Generalized least squares of y (n,) or (n, q) on the factor of R: the
    mean mu = u'y / 1'u unless given, the residual y - mu and
    alpha = R^-1 (y - mu)."""
    if mu is None:
        u, one_u = _mean_weights(factor)
        mu = (u @ y) / one_u
    resid = y - mu
    return mu, resid, dpotrs(factor, resid, lower=1)[0]


def _pivots_degenerate(factor: np.ndarray, nugget: float) -> bool:
    """True when the smallest Cholesky pivot is dominated by the nugget.

    In that regime the correlation matrix is numerically singular and the
    profile likelihood rewards it spuriously (log det collapses while the
    nugget hides the blow-up of the generalized residual). Such length
    scales are excluded from the search, mirroring the condition-number
    safeguards of standard GP fitting packages.
    """
    if nugget <= 0.0:
        return False
    smallest = float(np.min(np.diag(factor)))
    return smallest * smallest <= 10.0 * nugget


def _profile_nll(diffs, y, nugget, log_theta) -> float:
    """Negative profile log-likelihood of log-theta for one observation block.

    ``diffs`` holds the (n, n, d) squared input differences; ``y`` is one
    dataset (n,) or q datasets (n, q) sharing the correlation matrix R. Each
    dataset's mean is profiled by generalized least squares and its variance
    in closed form, leaving the sum over datasets of
    n/2 log(sigma2) + 1/2 log det R. Length-scales whose R is not positive
    definite, or whose pivots are dominated by the nugget, score _HUGE.
    """
    factor = _cholesky(diffs, np.exp(log_theta), nugget)
    if factor is None or _pivots_degenerate(factor, nugget):
        return _HUGE
    n = factor.shape[0]
    logdet = 2.0 * np.sum(np.log(np.diag(factor)))
    _, resid, alpha = _gls(factor, y)
    # resid' R^-1 resid per dataset, each as one dot product
    quad = resid.T[..., None, :] @ alpha.T[..., :, None]
    sigma2 = np.maximum(quad / n, 1e-300)
    value = 0.5 * n * np.sum(np.log(sigma2)) + 0.5 * sigma2.size * logdet
    return value if np.isfinite(value) else _HUGE


def _coordinate_search(func, x0, lo, hi, step0=1.5, min_step=0.05):
    x = np.asarray(x0, dtype=float).copy()
    fx = func(x)
    step = step0
    while step >= min_step:
        improved = False
        for k in range(x.size):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[k] = min(max(x[k] + sign * step, lo), hi)
                if trial[k] == x[k]:
                    continue
                ft = func(trial)
                if ft < fx - 1e-12:
                    x, fx = trial, ft
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return x, fx


def _starts(dims: int, count: int, lo: float, hi: float) -> np.ndarray:
    """Center of the box plus fixed quasi-random starts."""
    pts = [np.full(dims, 0.5 * (lo + hi))]
    table = _START_TABLE
    for i in range(count - 1):
        row = table[i % table.shape[0], :dims] if dims <= table.shape[1] else \
            np.resize(table[i % table.shape[0]], dims)
        pts.append(lo + (hi - lo) * row)
    return np.asarray(pts)


def _is_constant(y) -> bool:
    spread = np.ptp(y, axis=0)
    return bool(np.all(spread <= 1e-14 * max(1.0, float(np.max(np.abs(y))))))


def fit_theta(x_pts, y, options: FitOptions = None) -> np.ndarray:
    """Length-scales (d,) maximizing the profile likelihood of y at inputs x_pts.

    ``y`` is one dataset (n,) or a block (n, q) of datasets sharing one
    theta. The multistart coordinate search runs from every start point,
    then an L-BFGS-B polish from the best. Constant data skip the search
    (every theta predicts the constant) and keep theta = 1. Exact duplicate
    rows with a zero nugget raise IllConditionedError. Each search logs one
    DEBUG record on the "kspod" logger: the likelihood evaluations, how many
    of them were rejected, and how many fitted components sit on the search
    bounds. Non-finite or mis-sized data raise ValueError.
    """
    options = options or FitOptions()
    x_pts, (y,) = _checked(x_pts, [y])
    n, d = x_pts.shape
    if n == 1 or _is_constant(y):
        return np.ones(d)
    diffs = _sq_diffs(x_pts)
    y = np.ascontiguousarray(y)  # GLS products round by layout; theta must not
    scores = []

    def objective(log_theta):
        scores.append(_profile_nll(diffs, y, options.nugget, log_theta))
        return scores[-1]

    lo, hi = options.log_theta_bounds
    best_x, best_f = min(
        (_coordinate_search(objective, x0, lo, hi)
         for x0 in _starts(d, options.restarts, lo, hi)),
        key=lambda searched: searched[1],
    )
    result = optimize.minimize(
        objective, best_x, method="L-BFGS-B",
        bounds=[(lo, hi)] * d, options={"maxiter": 60},
    )
    if np.isfinite(result.fun) and result.fun < best_f:
        best_x, best_f = result.x, result.fun
    if best_f >= _HUGE:
        # a singular correlation matrix (duplicate rows, no nugget) makes
        # the likelihood undefined everywhere; report it as such
        _cholesky_or_raise(diffs, np.ones(d), options.nugget)
        raise FitError(
            "likelihood not finite anywhere in the search box",
            best_theta=np.exp(best_x),
        )
    _log.debug(
        "fit_theta: %d likelihood evaluations, %d rejected (R not positive "
        "definite, pivots dominated by the nugget, or a non-finite "
        "likelihood), %d of %d length-scales on the search bounds",
        len(scores), scores.count(_HUGE),
        int(np.sum((best_x <= lo) | (best_x >= hi))), d,
    )
    return np.exp(best_x)


def fit(x_pts, y, options: FitOptions = None) -> KrigingModel:
    """Fit ordinary kriging to observations y at input rows x_pts.

    Rows of x_pts should be distinct; exact duplicates with a zero nugget
    raise IllConditionedError. Constant observations skip the search (every
    theta predicts the constant) and keep theta = 1.
    """
    options = options or FitOptions()
    x_pts = np.atleast_2d(np.asarray(x_pts, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (x_pts.shape[0],):
        raise ValueError("observation count must match input rows")
    params = CorrelationParams(fit_theta(x_pts, y, options), options.nugget)
    return _build_model(x_pts, y, params)


def fit_fixed(x_pts, theta, y, nugget: float, mu=None):
    """Closed-form ordinary-kriging fit at fixed length-scales.

    ``theta`` (..., d) and ``y`` (..., n) stack datasets on the shared input
    rows ``x_pts`` (n, d), one per leading index. Each run of equal
    consecutive theta rows (in C order) is factorized once and its datasets
    solved as one (n, q) block; each dataset's mean is its own dot product,
    so it is fitted exactly as on its own. Returns the generalized-least-
    squares mean mu (...), the variance estimate sigma2 (...) and
    alpha = R^-1 (y - mu) (..., n). A given ``mu`` (one read back from a
    file) is used as is, so alpha is rebuilt exactly. Non-finite or
    mis-sized data raise ValueError.
    """
    x_pts, (y,) = _checked(x_pts, [y], axis=-1)
    (n, d), lead = x_pts.shape, y.shape[:-1]
    rows = np.broadcast_to(np.asarray(theta, dtype=float), lead + (d,)).reshape(-1, d)
    ys = y.reshape(-1, n)
    mu_out = np.empty(len(rows)) if mu is None else \
        np.array(np.broadcast_to(mu, lead), dtype=float).ravel()
    starts = np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)])
    diffs = _sq_diffs(x_pts)
    sigma2, alpha = np.empty(len(rows)), np.empty(ys.shape)
    for lo, hi in zip(starts, np.r_[starts[1:], len(rows)]):
        factor = _cholesky_or_raise(diffs, rows[lo], nugget)
        if mu is None:
            u, one_u = _mean_weights(factor)
            mu_out[lo:hi] = np.einsum("n,qn->q", u, ys[lo:hi]) / one_u
        _, resid, block = _gls(factor, ys[lo:hi].T, mu_out[lo:hi])
        alpha[lo:hi] = block.T
        sigma2[lo:hi] = np.maximum(np.einsum("nq,nq->q", resid, block) / n, 0.0)
    return mu_out.reshape(lead), sigma2.reshape(lead), alpha.reshape(y.shape)


def _build_model(x_pts, y, params: CorrelationParams) -> KrigingModel:
    mu, sigma2, alpha = fit_fixed(x_pts, params.theta, y, params.nugget)
    return KrigingModel(x_pts, y, params, float(mu), float(sigma2), alpha)


def predict(model: KrigingModel, x_new) -> float:
    """Conditional mean mu + r' R^-1 (y - mu 1) at a new point.

    Also accepts a (q, d) array of query points, returning a (q,) vector.
    """
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim not in (1, 2) or x_new.shape[-1] != model.dims:
        raise ValueError("query dimension does not match the model" if x_new.ndim == 1
                         else "query must be a (d,) vector or (q, d) array")
    r = np.exp(-((model.inputs - x_new[..., None, :]) ** 2) @ model.params.theta)
    value = model.mu_hat + r @ model.alpha
    return float(value) if x_new.ndim == 1 else value


class IndicatorKriging:
    """Indicator kriging on fixed inputs under one shared correlation
    parameter, factorized once for repeated weight queries."""

    def __init__(self, x_pts, params: CorrelationParams):
        self.x_pts = _checked(x_pts)[0]
        self.theta = params.theta
        self._factor = _cholesky_or_raise(_sq_diffs(self.x_pts), params.theta,
                                          params.nugget)
        self._u, self._one_u = _mean_weights(self._factor)

    def weights(self, x_new) -> np.ndarray:
        """Raw weights of the n inputs at x_new (see indicator_weights)."""
        x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
        if x_new.size != self.x_pts.shape[1]:
            raise ValueError("query dimension does not match the inputs")
        r = _corr_vector(self.x_pts, x_new, self.theta)
        u = self._u
        # w_i = mu_i (1 - r'u) + (R^-1 r)_i  with  mu_i = u_i / 1'u
        solve = dpotrs(self._factor, r, lower=1)[0]
        return (u / self._one_u) * (1.0 - r @ u) + solve


def indicator_weights(x_pts, params: CorrelationParams, x_new) -> np.ndarray:
    """Kriging weights from the n unit-vector targets under one shared theta.

    Weight i is the ordinary-kriging prediction of the i-th indicator vector
    at x_new. Under a shared correlation parameter all n predictions come
    from one linear predictor, so the raw weights sum to one identically
    (and individual weights may be negative).
    """
    if not np.all(np.isfinite(x_new)):
        raise ValueError("query must be finite")
    return IndicatorKriging(x_pts, params).weights(x_new)


def fit_indicator_theta(x_pts, nugget: float = DEFAULT_NUGGET,
                        log_theta_bounds: tuple = DEFAULT_LOG_THETA_BOUNDS) -> float:
    """Shared isotropic theta for indicator kriging, by maximum likelihood.

    Maximizes the sum of the n indicator datasets' profile log-likelihoods
    (the identity block as observations), an objective symmetric under
    relabeling of the cases, over a single isotropic parameter.
    """
    x_pts = np.atleast_2d(np.asarray(x_pts, dtype=float))
    n = x_pts.shape[0]
    if n == 1:
        return 1.0
    diffs = _sq_diffs(x_pts).sum(axis=2, keepdims=True)
    eye = np.eye(n)

    def objective(log_theta: float) -> float:
        return _profile_nll(diffs, eye, nugget, [log_theta])

    lo, hi = log_theta_bounds
    grid = np.linspace(lo, hi, 33)
    values = [objective(g) for g in grid]
    k = int(np.argmin(values))
    lo_b = grid[max(k - 1, 0)]
    hi_b = grid[min(k + 1, grid.size - 1)]
    result = optimize.minimize_scalar(
        objective, bounds=(lo_b, hi_b), method="bounded",
        options={"xatol": 1e-6},
    )
    best = result.x if result.fun <= values[k] else grid[k]
    if min(result.fun, values[k]) >= _HUGE:
        warnings.warn("indicator likelihood degenerate; keeping theta = 1")
        return 1.0
    return float(np.exp(best))


def write_model(model: KrigingModel, path) -> None:
    """Write a fitted model as a KSGP1 file (factorization not stored)."""
    w = Writer(MAGIC)
    w.u64(model.n, model.dims)
    w.f64(model.inputs)
    w.f64(model.obs)
    w.f64(model.params.theta)
    w.f64([model.params.nugget, model.mu_hat, model.sigma2_hat])
    w.dump(path)


def read_model(path) -> KrigingModel:
    with open(path, "rb") as fh:
        r = Reader(fh, MAGIC)
        n, d = r.u64(2)
        if min(n, d) < 1 or n * d > MAX_ELEMENTS:
            raise DimensionOverflowError(f"{path}: implausible dimensions n={n}, d={d}")
        inputs = r.f64(n * d, shape=(n, d))
        obs = r.f64(n)
        theta = r.f64(d)
        scalars = r.f64(3)
        r.finish()
    for arr in (inputs, obs, theta, scalars):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteDataError(f"{path}: payload contains non-finite values")
    nugget, mu, sigma2 = scalars
    params = CorrelationParams(theta, float(nugget))
    return KrigingModel(inputs, obs, params, float(mu), float(sigma2))
