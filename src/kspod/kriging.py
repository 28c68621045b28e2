"""Ordinary kriging with a squared-exponential correlation function.

Length-scale parameters are tuned by maximizing the profile log-likelihood
(process mean and variance eliminated analytically), with a coordinate
search in log space run from several fixed start points; the best end point
is kept. One search serves a single dataset or a block of datasets on the
same inputs: the block shares one length-scale vector, while each dataset
keeps its own mean and variance. Every correlation matrix is factorized by
one LAPACK Cholesky helper, and the search and the closed-form fit at
fixed length-scales share one least-squares step: a whitened triangular
solve against the factor. The search scores each distinct length-scale
vector once. At fixed length-scales one class, ``OrdinaryKriging``,
factorizes once for the closed-form fit of a block of datasets and for the
ordinary-kriging weights of queries, which sum to one identically. Under
one shared isotropic parameter they are the indicator weights that blend
cases; the parameter is a grid value whose weights keep interpolating
while its lower neighbour's do not. Under a fitted anisotropic parameter
they krige a whole block of datasets, such as the emulator's case means.
Each value is checked once, where it enters: ``FitOptions`` checks the
search's options, and ``OrdinaryKriging`` its own length-scales and nugget.
"""

import bisect
import logging
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import FitError, IllConditionedError

__all__ = [
    "FitOptions",
    "OrdinaryKriging",
    "fit_indicator_theta",
    "fit_theta",
]

DEFAULT_NUGGET = 1e-8
DEFAULT_LOG_THETA_BOUNDS = (-6.0, 6.0)

# fit_indicator_theta's identity tolerance (criterion 05 asks 1e-6) and step
IDENTITY_TOL = 1e-7
IDENTITY_LOG_STEP = 0.05

# Fixed table of multistart points in the unit box; scaled to the log-theta
# bounds at fit time. Frozen so repeated fits are bit-reproducible.
_START_TABLE = np.random.default_rng(20240311).uniform(size=(32, 16))

_log = logging.getLogger("kspod")


def _is_real(value) -> bool:
    """A real number, numpy ones included, booleans not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_nugget(nugget) -> None:
    """The one nugget rule, of FitOptions and OrdinaryKriging alike."""
    if not _is_real(nugget):
        raise ValueError(f"nugget must be a number, got {nugget!r}")
    if not (np.isfinite(nugget) and nugget >= 0.0):
        raise ValueError(f"nugget must be finite and nonnegative, got {nugget!r}")


@dataclass(frozen=True)
class FitOptions:
    nugget: float = DEFAULT_NUGGET
    log_theta_bounds: tuple = DEFAULT_LOG_THETA_BOUNDS
    restarts: int = 8

    def __post_init__(self):
        _check_nugget(self.nugget)
        try:
            lo, hi = self.log_theta_bounds
        except (TypeError, ValueError):  # not two entries
            lo = hi = None
        if not (_is_real(lo) and _is_real(hi)):
            raise ValueError(
                f"log_theta_bounds must be two numbers, got {self.log_theta_bounds!r}")
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("log_theta_bounds must be finite with lower < upper, "
                             f"got {self.log_theta_bounds!r}")
        if isinstance(self.restarts, bool) or not isinstance(self.restarts, numbers.Integral):
            raise ValueError(f"restarts must be an integer, got {self.restarts!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts!r}")


def _sq_diffs(x_pts: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences, shape (n, n, d), built one (n, n)
    outer difference per dimension: one broadcast runs n * n inner loops of d."""
    diffs = np.empty(x_pts.shape[:1] * 2 + x_pts.shape[1:])
    for k, col in enumerate(x_pts.T):
        np.subtract.outer(col, col, out=diffs[:, :, k])
    return np.square(diffs, out=diffs)


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
    n, _, d = diffs.shape
    # one (n * n, d) gemv; the (n, n, d) operand would loop over n gemvs
    rmat = (diffs.reshape(n * n, d) @ -theta).reshape(n, n)
    np.exp(rmat, out=rmat)
    rmat.flat[::n + 1] += nugget
    # R is exactly symmetric, so its column-major view is R itself and
    # LAPACK factorizes it in place
    factor, info = dpotrf(rmat.T, lower=1, clean=0, overwrite_a=1)
    return factor if info == 0 else None


def _ones_block(y):
    """The column-major (n, 1 + q) block [1 | y] of a dataset (n,) or (n, q)."""
    y = y.reshape(y.shape[0], -1)
    block = np.empty((y.shape[0], 1 + y.shape[1]), order="F")
    block[:, 0] = 1.0
    block[:, 1:] = y
    return block


def _gls(factor, block):
    """Generalized least squares of the datasets in ``block`` = [1 | y] by one
    triangular solve W = L^-1 block against the lower factor L of R: with
    v = L^-1 1, each dataset's mean is mu = v'z / v'v, its whitened residual
    z - mu v and its variance |z - mu v|^2 / n (Rasmussen & Williams 2006,
    Alg. 2.1). Returns mu (q,), sigma2 (q,) and W with the residuals in
    place of z, column-major. Each dataset's sums run down its own column,
    so it is fitted exactly as on its own."""
    white = dtrtrs(factor, block, lower=1)[0]
    v, resid = white[:, 0], white[:, 1:]
    mu = np.einsum("n,nq->q", v, resid) / (v @ v)
    # the transposed outer product is column-major like resid, so the
    # subtraction runs in memory order
    resid -= np.multiply.outer(mu, v).T
    return mu, np.einsum("nq,nq->q", resid, resid) / factor.shape[0], white


def _profile_nll(diffs, block, nugget, log_theta) -> float:
    """Negative profile log-likelihood of log-theta for one observation block.

    ``diffs`` holds the (n, n, d) squared input differences; ``block`` is
    [1 | y] (see _ones_block) of one dataset (n,) or q datasets (n, q)
    sharing the correlation matrix R. Each dataset's mean and variance are
    profiled by _gls, leaving the sum over datasets of
    n/2 log(sigma2) + 1/2 log det R. Length-scales whose R is not positive
    definite score inf, as do those whose smallest pivot is dominated by
    the nugget: R is then numerically singular and the likelihood rewards it
    spuriously (log det collapses while the nugget hides the residual).
    """
    factor = _cholesky(diffs, np.exp(log_theta), nugget)
    if factor is None:
        return np.inf
    # array methods rather than the numpy functions that wrap them: this
    # runs once per length-scale scored, and the wrappers cost about as
    # much as the arithmetic at these sizes
    pivots = factor.diagonal()
    smallest = float(pivots.min())
    if nugget > 0.0 and smallest * smallest <= 10.0 * nugget:
        return np.inf
    n = factor.shape[0]
    logdet = 2.0 * np.log(pivots).sum()
    sigma2 = np.maximum(_gls(factor, block)[1], 1e-300)
    value = 0.5 * n * np.log(sigma2).sum() + 0.5 * sigma2.size * logdet
    return value if np.isfinite(value) else np.inf


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


def fit_theta(x_pts, y, options: FitOptions = None, starts=None) -> np.ndarray:
    """Length-scales (d,) maximizing the profile likelihood of y at inputs x_pts.

    ``y`` is one dataset (n,) or a block (n, q) of datasets sharing one
    theta. The coordinate search runs from every start point, by default
    the centre of the log-theta box and ``options.restarts - 1`` fixed
    quasi-random points; ``starts`` (s, d) or (d,) replaces them by the
    given log-theta points, clipped to the bounds (the emulator starts its
    mean-field search from mode 0's fitted log-theta). The best
    end point is returned: no move of one log-theta coordinate by the last
    step (1.5 / 16, clipped to the bounds) lowers the negative likelihood
    there by more than 1e-12. Constant data skip the search (every theta
    predicts the constant) and keep theta = 1. Every distinct log-theta the
    starts visit is scored once, by one factorization and one triangular
    solve (see _profile_nll); a repeat is answered from memory. Exact
    duplicate rows with a zero nugget raise IllConditionedError. Each search
    logs one DEBUG record on the "kspod" logger: the distinct length-scale
    vectors scored, the repeats answered from memory, how many distinct ones
    were rejected, and how many fitted components sit on the search bounds.
    Non-finite or mis-sized data or starts raise ValueError.
    """
    return _search_theta(x_pts, y, options, starts)[0]


def _search_theta(x_pts, y, options: FitOptions = None, starts=None):
    """fit_theta's length-scales and the number of distinct log-theta it scored."""
    options = options or FitOptions()
    x_pts, (y,) = _checked(x_pts, [y])
    n, d = x_pts.shape
    lo, hi = options.log_theta_bounds
    if starts is None:
        starts = _starts(d, options.restarts, lo, hi)
    else:
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        if starts.ndim != 2 or starts.shape[1] != d or not np.isfinite(starts).all():
            raise ValueError(f"starts must be finite log-theta rows of length {d}")
        starts = np.clip(starts, lo, hi)
    if n == 1 or _is_constant(y):
        return np.ones(d), 0
    diffs = _sq_diffs(x_pts)
    # one column-major copy, so products round alike whatever y's layout
    block = _ones_block(y)
    scores, repeats = {}, 0

    def objective(log_theta):
        nonlocal repeats
        key = log_theta.tobytes()
        if key in scores:
            repeats += 1
        else:
            scores[key] = _profile_nll(diffs, block, options.nugget, log_theta)
        return scores[key]

    best_x, best_f = min(
        (_coordinate_search(objective, x0, lo, hi) for x0 in starts),
        key=lambda searched: searched[1],
    )
    if best_f == np.inf:
        # a singular correlation matrix (duplicate rows, no nugget) makes
        # the likelihood undefined everywhere; report it as such
        OrdinaryKriging(x_pts, np.ones(d), options.nugget, diffs)
        raise FitError(
            "likelihood not finite anywhere in the search box",
            best_theta=np.exp(best_x),
        )
    _log.debug(
        "fit_theta: %d distinct length-scale vectors scored, %d repeats "
        "answered from memory, %d rejected (R not positive definite, pivots "
        "dominated by the nugget, or a non-finite likelihood), %d of %d "
        "length-scales on the search bounds",
        len(scores), repeats, list(scores.values()).count(np.inf),
        int(np.sum((best_x <= lo) | (best_x >= hi))), d,
    )
    return np.exp(best_x), len(scores)


class OrdinaryKriging:
    """Ordinary kriging on inputs (n, d) under length-scales ``theta`` (d,),
    correlation exp(-sum_k theta_k dx_k^2), and a ``nugget``: fits and
    weights share one Cholesky factor of R(theta) + nugget I. ``diffs``, the
    (n, n, d) squared differences of ``x_pts`` (see _sq_diffs), lets objects
    on the same inputs share them. Non-finite inputs, a theta that is not a
    (d,) vector of positive finite entries or a nugget that is not a finite
    nonnegative number raise ValueError, and an R that is not positive
    definite raises IllConditionedError."""

    def __init__(self, x_pts, theta, nugget=DEFAULT_NUGGET, diffs=None):
        self.x_pts = _checked(x_pts)[0]
        d = self.x_pts.shape[1]
        theta = np.array(theta, dtype=float, ndmin=1)
        if theta.shape != (d,):
            raise ValueError(f"theta must be a ({d},) vector, got shape {theta.shape}")
        if not (np.isfinite(theta).all() and (theta > 0.0).all()):
            raise ValueError("theta entries must be positive and finite")
        _check_nugget(nugget)
        theta.flags.writeable = False
        self.theta = theta
        if diffs is None:
            diffs = _sq_diffs(self.x_pts)
        self._factor = _cholesky(diffs, theta, nugget)
        if self._factor is None:
            raise IllConditionedError("correlation matrix is not positive definite; "
                                      "distinct inputs or a nugget are required")

    @cached_property
    def _mu(self):
        """R^-1 1 / 1'R^-1 1, solved on the first weight query: an object that
        only fits (each mode's, rebuilt on every load) never needs it."""
        ones = np.ones(self._factor.shape[0])
        u = dpotrs(self._factor, ones, lower=1)[0]
        return u / (u @ ones)

    def fit(self, y):
        """Closed-form fit of datasets ``y`` (..., n), one per leading index,
        solved as one (n, q) block by _gls, each exactly as on its own.
        Returns the generalized-least-squares mean mu (...), the variance
        sigma2 (...) and alpha = R^-1 (y - mu) = L^-T (z - mu v) (..., n), all
        from the one factor. Non-finite or mis-sized data raise ValueError."""
        y = _checked(self.x_pts, [y], axis=-1)[1][0]
        lead = y.shape[:-1]
        mu, sigma2, white = _gls(self._factor, _ones_block(y.reshape(-1, y.shape[-1]).T))
        # v rides along, so each residual is back-solved in a block of at least
        # two columns and rounds as it does in any other block
        alpha = dtrtrs(self._factor, white, lower=1, trans=1)[0][:, 1:].T
        return mu.reshape(lead), sigma2.reshape(lead), alpha.reshape(y.shape)

    def weights(self, x_new) -> np.ndarray:
        """Weights (n,) of the inputs at a query (d,), or (q, n) at a block
        (q, d), each row computed alike. Weight i predicts the i-th unit
        vector, so the weights sum to one identically and may be negative.
        A non-finite query raises ValueError."""
        x_new, d = np.atleast_1d(np.asarray(x_new, dtype=float)), self.x_pts.shape[1]
        if x_new.ndim > 2 or x_new.shape[-1] != d:
            raise ValueError(f"query must be a ({d},) vector or (q, {d}) array")
        if not np.isfinite(x_new).all():
            raise ValueError("query must be finite")
        return self.solve(np.exp(-((self.x_pts - x_new[..., None, :]) ** 2) @ self.theta))

    def solve(self, r) -> np.ndarray:
        """Weights from the query's correlations r (n,) or (q, n) to the
        inputs, for callers that build r themselves."""
        # w = mu (1 - 1'R^-1 r) + R^-1 r  with  mu = R^-1 1 / 1'R^-1 1
        solve = dpotrs(self._factor, r.T, lower=1)[0].T
        return (1.0 - solve.sum(axis=-1))[..., None] * self._mu + solve


def fit_indicator_theta(x_pts, options: FitOptions = None) -> float:
    """Shared isotropic theta for indicator kriging: the smallest candidate,
    stepping IDENTITY_LOG_STEP up from the lower ``options.log_theta_bounds``
    to the upper one, whose weights under ``options.nugget`` reproduce the
    unit vectors at the inputs to IDENTITY_TOL.

    A conditioning rule, not a fit: smaller theta blends more locally, but
    the residual w(x_j) - e_j (-nugget times column j of the inverse bordered
    matrix, Dubrule 1983, plus round-off) grows as theta falls, so bisection
    finds the first candidate that passes; with a zero nugget the residual
    is round-off alone, and the pick is one whose lower neighbour misses. A
    failed factorization misses. If even the upper bound misses, it is
    returned. Logs one DEBUG record on the "kspod" logger.
    """
    options = FitOptions() if options is None else options
    x_pts = _checked(x_pts)[0]
    n, d = x_pts.shape
    lo, hi = options.log_theta_bounds
    count = np.ceil((hi - lo) / IDENTITY_LOG_STEP - 1e-9)
    grid = np.append(lo + IDENTITY_LOG_STEP * np.arange(count), hi)
    diffs = _sq_diffs(x_pts)  # one array for every candidate
    resids = {}

    def passes(k):
        try:
            weights = OrdinaryKriging(x_pts, np.full(d, np.exp(grid[k])), options.nugget,
                                      diffs).weights(x_pts)
            resids[k] = np.abs(weights - np.eye(n)).max()
        except IllConditionedError:
            resids[k] = np.inf
        return resids[k] <= IDENTITY_TOL

    top = grid.size - 1
    fallback = not passes(top)
    pick = top if fallback else bisect.bisect_left(range(top), True, key=passes)
    theta = float(np.exp(grid[pick]))
    _log.debug("fit_indicator_theta: theta_w %.6g, identity residual %.3e, "
               "%d residual evaluations, fell back to the upper bound: %s",
               theta, resids[pick], len(resids), fallback)
    return theta
