"""Kernel-smoothed POD emulator of spatiotemporal fields.

Training decomposes every case into spatial modes and temporal coefficients,
rotates every case's modes (and its coefficients with them) onto the leading
eigenvectors of the cases' pooled covariance, kriges each mode's
coefficients under one length-scale vector (each time-step keeps its own
mean, variance and weights), configures shared-parameter indicator kriging
over the design space and, with centering, fits one length-scale vector
for the case mean fields. Prediction at an untried design is one pass: the
query's correlations under every length-scale come from one product, the
per-case modes are blended with the indicator weights (ordinary-kriging
weights, which sum to one by construction) and the mean fields with
ordinary-kriging weights under the mean length-scales, the
coefficient models are evaluated and one product recombines. A model read
from a KSEM1 file has no mean length-scales and blends its mean fields with
the indicator weights, as such files were written to.

Design vectors are normalized to the unit cube before any kriging; the
squared-exponential correlation is not scale-invariant.
"""

import hashlib
import logging
import numbers
import time
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from ._binio import MAX_ELEMENTS, Reader, Writer
from ._frozen import reduce_by_constructor
from .design import DesignRanges
from .errors import DimensionOverflowError, IncompatibleCasesError, NonFiniteDataError
from .kriging import (
    DEFAULT_LOG_THETA_BOUNDS,
    DEFAULT_NUGGET,
    FitOptions,
    OrdinaryKriging,
    _is_real,
    _search_theta,
    _sq_diffs,
    fit_indicator_theta,
    fit_theta,
)
from .pod import _time_indices, align_modes, decompose, rank_for_energy, truncate
from .snapshots import SnapshotSet

__all__ = [
    "EmulatorModel",
    "TrainOptions",
    "WeightVector",
    "load_model",
    "predict_coefficients",
    "predict_field",
    "predict_modes",
    "predict_snapshots",
    "save_model",
    "train",
    "weight_vector",
]

# KSEM2 is KSEM1 followed by the mean-field length-scales (d floats); a model
# without them (uncentered, or read from a KSEM1 file) is written as KSEM1
MAGIC = "KSEM1"
MAGIC_MEAN = "KSEM2"

# The mean-field length-scales are searched on every MEAN_COLUMN_STRIDE-th
# grid column of the case means; the mean weights take them at this nugget,
# small enough that they reproduce the training means (criterion 08)
MEAN_COLUMN_STRIDE = 7
MEAN_WEIGHT_NUGGET = 1e-10

_log = logging.getLogger("kspod")


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


@dataclass(frozen=True)
class WeightVector:
    """Per-case indicator-kriging blending weights. They are ordinary-kriging
    weights and sum to one by construction, so ``normalized`` is ``raw``,
    kept for callers that read it."""

    raw: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        return self.raw


@dataclass(frozen=True)
class TrainOptions:
    """Knobs for emulator training, each checked here; a refused value
    raises a ValueError that names the field.

    Exactly one truncation rule applies: ``num_modes`` when given, otherwise
    the cumulative ``energy_threshold``; ``num_modes`` and ``restarts`` must
    be integers, ``energy_threshold``, ``nugget`` and both
    ``log_theta_bounds`` entries real numbers (numpy ones included, booleans
    not) and ``centering`` a boolean. ``ranges`` (a ``DesignRanges``)
    defaults to the bounding box of the training designs. ``nugget``,
    ``log_theta_bounds`` and ``restarts`` are checked as ``FitOptions`` and
    set the coefficient length-scale search, run once per mode on all its
    time-steps together. The indicator-weight parameter is always fitted: a
    grid theta within ``log_theta_bounds`` whose weights keep the
    interpolation identity at the training designs while the next lower
    one's do not (``kriging.fit_indicator_theta``); the smallest passing
    one under a nugget, while with a zero nugget a lower one may pass.
    """

    energy_threshold: float = 0.99
    num_modes: int = None
    centering: bool = True
    ranges: DesignRanges = None
    nugget: float = DEFAULT_NUGGET
    log_theta_bounds: tuple = DEFAULT_LOG_THETA_BOUNDS
    restarts: int = 8

    def __post_init__(self):
        threshold = self.energy_threshold
        if not _is_real(threshold):
            raise ValueError(f"energy_threshold must be a number, got {threshold!r}")
        if self.num_modes is None and not 0.0 < threshold <= 1.0:
            raise ValueError(f"energy_threshold must lie in (0, 1], got {threshold!r}")
        if self.num_modes is not None:
            if isinstance(self.num_modes, bool) or not isinstance(self.num_modes, numbers.Integral):
                raise ValueError(f"num_modes must be an integer, got {self.num_modes!r}")
            if self.num_modes < 1:
                raise ValueError(f"num_modes must be at least 1, got {self.num_modes!r}")
        if not isinstance(self.centering, (bool, np.bool_)):
            raise ValueError(f"centering must be a boolean, got {self.centering!r}")
        if not (self.ranges is None or isinstance(self.ranges, DesignRanges)):
            raise ValueError(f"ranges must be a DesignRanges or None, got {self.ranges!r}")
        self.fit_options  # raises ValueError on bad kriging options

    @cached_property
    def fit_options(self) -> FitOptions:
        return FitOptions(self.nugget, self.log_theta_bounds, self.restarts)


@dataclass(frozen=True)
class EmulatorModel:
    """Trained emulator: the aligned case library and the coefficient and
    weight models, all held as arrays.

    The fields are what a KSEM2 file stores (KSEM1 without ``mean_theta``)
    but the coefficient means and variances, which are derived. ``library``
    is one C-contiguous case-major stack (n, K + 1, J): per case the K
    aligned modes as rows (``modes.T``), then the mean field, which is
    absent without centering. ``eigenvalues``
    (n, K) and ``coefficients`` (K, m, n) are the cases' retained POD
    eigenvalues and aligned temporal coefficients. Prediction blends the
    mode rows with the indicator weights and the mean rows with the
    ordinary-kriging weights under the mean-field length-scales
    ``mean_theta`` (d,), taken at MEAN_WEIGHT_NUGGET, and recombines with
    the blended mean row as the coefficient 1. A centered model without
    ``mean_theta`` (one read from a KSEM1 file) blends its mean rows with
    the indicator weights as well; an uncentered one has no ``mean_theta``.

    The coefficient GPs of mode k, on normalized inputs, share length-scales
    ``coeff_theta[k]``. ``options_record`` carries the indicator weight
    parameter ``weight_theta`` and the ``nugget``.

    Everything else is derived from the fields, here and only here, so a
    model and its saved-and-loaded copy predict alike: ``rank`` (K); each
    mode's GLS means ``coeff_mu`` (K, m), variances ``coeff_sigma2`` (K, m)
    and weights ``coeff_alpha[k, q] = R^-1 (y - mu)`` (K, m, n), all from
    the one fit of the mode's coefficients under its one factor; and the
    indicator weights, under ``weight_theta`` in every dimension, and the
    mean-field weights on the unit-cube design. One ``OrdinaryKriging`` per
    length-scale (weights, mean, each mode) factorizes each of these GPs,
    all on one array of squared design differences. The stored and derived
    arrays are read-only and ``options_record`` is a read-only mapping, so
    no field can change under the state derived from it; a changed model is
    a new one (``dataclasses.replace``).
    """

    design: np.ndarray        # (n, d) physical design points
    ranges: DesignRanges
    library: np.ndarray       # (n, K [+ 1], J) modes as rows, then the mean
    eigenvalues: np.ndarray   # (n, K)
    coefficients: np.ndarray  # (K, m, n)
    coeff_theta: np.ndarray   # (K, d)
    grid: np.ndarray          # (J, 2)
    times: np.ndarray         # (m,)
    centering: bool
    options_record: Mapping
    variable: str = "field"
    units: str = ""
    mean_theta: np.ndarray = None  # (d,), or None

    def __post_init__(self):
        object.__setattr__(self, "design", np.atleast_2d(self.design))
        names = ["design", "library", "eigenvalues", "coefficients", "coeff_theta",
                 "grid", "times"]
        if self.mean_theta is not None:
            if not self.centering:
                raise ValueError("an uncentered model has no mean-field length-scales")
            names.append("mean_theta")
        for name in names:
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "options_record", MappingProxyType(dict(self.options_record)))
        unit = self.ranges.normalize(self.design)
        diffs = _sq_diffs(unit)
        nugget = self.options_record["nugget"]
        weight_theta = np.full(self.dims, float(self.options_record["weight_theta"]))
        fits = [OrdinaryKriging(unit, th, nugget, diffs).fit(y)
                for th, y in zip(self.coeff_theta, self.coefficients, strict=True)]
        derived = map(np.stack, zip(*fits))
        for name, arr in zip(("coeff_mu", "coeff_sigma2", "coeff_alpha"), derived):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # every length-scale a query correlates under, one row each: the
        # weights', the mean field's when it is kriged, then each mode's
        thetas = [weight_theta]
        mean_kriging = None
        if self.mean_theta is not None:
            mean_kriging = OrdinaryKriging(unit, self.mean_theta, MEAN_WEIGHT_NUGGET, diffs)
            thetas.append(self.mean_theta)
        object.__setattr__(self, "_design_unit", unit)
        object.__setattr__(self, "_indicator", OrdinaryKriging(unit, weight_theta, nugget, diffs))
        object.__setattr__(self, "_mean_kriging", mean_kriging)
        object.__setattr__(self, "_query_theta", np.vstack([*thetas, self.coeff_theta]))

    # a copy is rebuilt from the stored fields and derives the rest anew
    __reduce__ = reduce_by_constructor

    @property
    def rank(self) -> int:
        return self.eigenvalues.shape[1]

    @property
    def n_cases(self) -> int:
        return self.design.shape[0]

    @property
    def dims(self) -> int:
        return self.design.shape[1]

    @property
    def num_points(self) -> int:
        return self.grid.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.times.size


def _derive_ranges(design: np.ndarray) -> DesignRanges:
    lo = design.min(axis=0)
    hi = design.max(axis=0)
    flat = hi <= lo
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    return DesignRanges(lo, hi)


def _common_rank(bases, options: TrainOptions) -> int:
    available = min(b.num_modes for b in bases)
    if options.num_modes is not None:
        if options.num_modes > available:
            raise ValueError(
                f"num_modes={options.num_modes} exceeds the smallest case "
                f"rank {available}"
            )
        return options.num_modes
    ranks = [rank_for_energy(b, options.energy_threshold) for b in bases]
    k = min(ranks)
    if k < 1:
        raise ValueError("training cases carry no resolvable variance")
    return k


def train(cases, options: TrainOptions = None) -> EmulatorModel:
    """Train the emulator from per-case snapshot sets.

    All cases must share bit-identical grids and time vectors and have
    distinct design vectors. A single-case model is permitted (with a
    warning) and degenerates to that case's truncated reconstruction.

    Logs one INFO record per stage on the "kspod" logger, each with its
    duration: the decompositions; the common rank, with the smallest energy
    fraction it captures in any case, and the alignment, with the largest
    and median per-case Procrustes residual |Phi_i R_i - U|_W / sqrt(K) and
    the gap mu_K / mu_(K+1) of the pooled eigenvalues (``pod.align_modes``);
    each mode's length-scale search and its result; the weight parameter;
    the fixed fit, which builds the model (one fit per mode gives its
    coefficient means, variances and weights); and, with centering, the
    mean-field length-scales with the number of distinct ones scored, the
    identity residual max |W_mean(X) - I| of the mean weights at the
    training designs, and the largest relative miss
    max_i |W_mean(X)_i means - mean_i| / |mean_i| of the mean rows.
    """
    options = options or TrainOptions()
    cases = list(cases)
    if not cases:
        raise ValueError("at least one training case is required")
    if len(cases) == 1:
        warnings.warn(
            "training on a single case: predictions will reproduce that "
            "case everywhere", stacklevel=2,
        )

    ref = cases[0]
    for c in cases[1:]:
        if c.grid.tobytes() != ref.grid.tobytes() or \
                c.times.tobytes() != ref.times.tobytes():
            raise IncompatibleCasesError(
                f"case {c.case_id!r} grid/times differ from {ref.case_id!r}"
            )

    design = np.vstack([c.design for c in cases])
    if np.unique(design, axis=0).shape[0] != design.shape[0]:
        raise ValueError("training designs must be distinct")
    if options.ranges is not None and options.ranges.dims != design.shape[1]:
        raise ValueError(f"ranges has {options.ranges.dims} dims, the training "
                         f"designs {design.shape[1]}")

    t0 = time.perf_counter()
    bases = [decompose(c, centering=options.centering) for c in cases]
    _log.info("train: decomposed %d cases in %.1f ms", len(bases), _ms_since(t0))
    return _assemble(design, bases, ref, options)


def _assemble(design, bases, ref_case: SnapshotSet,
              options: TrainOptions) -> EmulatorModel:
    """Build the model from per-case bases (rank choice, alignment, fits)."""
    t0 = time.perf_counter()
    k_rank = _common_rank(bases, options)
    truncated = [truncate(b, num_modes=k_rank) for b in bases]
    # the library rows and coefficients as the cases give them, then rotated
    # in place
    library = np.empty((len(bases), k_rank + options.centering, ref_case.num_points))
    for rows, basis in zip(library, truncated):
        rows[:k_rank] = basis.modes.T
        if options.centering:
            rows[k_rank] = basis.mean_field
    coeff_tensor = np.stack([b.coeffs for b in truncated], axis=0)  # (n, m, K)
    # train decomposes with unit quadrature weights
    resid, gap = align_modes(library[:, :k_rank], coeff_tensor)
    captured = min(np.cumsum(b.energy_fractions)[k_rank - 1] for b in bases)
    _log.info("train: common rank %d, smallest captured energy %.6f; Procrustes "
              "residual largest %.3e, median %.3e; pooled eigenvalue gap %.4g; rank "
              "and alignment in %.1f ms", k_rank, captured, resid.max(),
              np.median(resid), gap, _ms_since(t0))

    ranges = options.ranges or _derive_ranges(design)
    unit = ranges.normalize(design)

    # one length-scale per mode, from the (n, m) block of all its time-steps
    theta = np.empty((k_rank, unit.shape[1]))
    for k in range(k_rank):
        t0 = time.perf_counter()
        theta[k] = fit_theta(unit, coeff_tensor[:, :, k], options.fit_options)
        _log.info("train: mode %d length-scales %s in %.1f ms",
                  k, theta[k], _ms_since(t0))
    t0 = time.perf_counter()
    theta_w = fit_indicator_theta(unit, options.fit_options)
    _log.info("train: weight theta %.6g in %.1f ms", theta_w, _ms_since(t0))

    mean_theta = None
    if options.centering:
        # one search, from mode 0's log length-scales, on a column subset of
        # the (n, J) case means
        t0 = time.perf_counter()
        mean_theta, scored = _search_theta(
            unit, library[:, k_rank, ::MEAN_COLUMN_STRIDE], options.fit_options,
            starts=np.log(theta[0]))
        mean_ms = _ms_since(t0)

    record = {
        "energy_threshold": options.energy_threshold,
        "num_modes": options.num_modes,
        "centering": options.centering,
        "nugget": options.nugget,
        "log_theta_bounds": tuple(options.log_theta_bounds),
        "restarts": options.restarts,
        "weight_theta": theta_w,
    }
    t0 = time.perf_counter()
    model = EmulatorModel(
        design=design,
        ranges=ranges,
        library=library,
        eigenvalues=np.stack([b.eigenvalues for b in truncated]),
        coefficients=np.ascontiguousarray(coeff_tensor.transpose(2, 1, 0)),
        coeff_theta=theta,
        grid=ref_case.grid,
        times=ref_case.times,
        centering=options.centering,
        options_record=record,
        variable=ref_case.variable,
        units=ref_case.units,
        mean_theta=mean_theta,
    )
    _log.info("train: fixed fit of %d coefficient models in %.1f ms",
              model.coeff_mu.size, _ms_since(t0))
    if mean_theta is not None:
        # the identity residual overstates how far the blended mean rows miss
        # the training means, so their largest relative miss goes beside it;
        # one row at a time, so training's peak memory does not grow
        weights, means = model._mean_kriging.weights(unit), library[:, k_rank]
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero mean reads inf
            miss = max(np.linalg.norm(w @ means - mean) / np.linalg.norm(mean)
                       for w, mean in zip(weights, means))
        _log.info("train: mean length-scales %s, identity residual %.3e, largest relative "
                  "miss of the mean rows %.3e, %d distinct scored in %.1f ms", mean_theta,
                  np.abs(weights - np.eye(len(unit))).max(), miss, scored, mean_ms)
    return model


def _normalize_query(model: EmulatorModel, x_new) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x_new, dtype=float))
    if x.shape != (model.dims,):
        raise ValueError(f"query must be a {model.dims}-vector")
    if not np.isfinite(x).all():
        raise ValueError("query design must be finite")
    return model.ranges.normalize(x)


def _correlations(model: EmulatorModel, x_new) -> np.ndarray:
    """Correlations of the query to the n training designs, one row per
    length-scale of ``_query_theta`` (weights, kriged mean, modes), from one
    exponent product."""
    sq = (model._design_unit - _normalize_query(model, x_new)) ** 2
    r = model._query_theta @ sq.T
    return np.exp(np.negative(r, out=r), out=r)


def weight_vector(model: EmulatorModel, x_new) -> WeightVector:
    """Indicator-kriging blending weights of the training cases at x_new,
    ordinary-kriging weights that sum to one."""
    return WeightVector(model._indicator.solve(_correlations(model, x_new)[0]))


def predict_modes(model: EmulatorModel, x_new) -> np.ndarray:
    """Indicator-weighted average of the aligned per-case modes, (J, K)."""
    w = weight_vector(model, x_new).raw
    library = model.library
    return (w @ library[:, :model.rank].reshape(library.shape[0], -1)).reshape(
        model.rank, -1).T


def predict_coefficients(model: EmulatorModel, x_new,
                         time_indices=None) -> np.ndarray:
    """Coefficient predictions (K, len(indices)), mu + r_k . alpha with each
    mode's correlations r_k to the training designs computed once (n,)."""
    idx = _time_indices(time_indices, model.num_snapshots)
    r = _correlations(model, x_new)[-model.rank:]
    return model.coeff_mu[:, idx] + np.einsum("kn,kqn->kq", r, model.coeff_alpha[:, idx])


def predict_field(model: EmulatorModel, x_new, time_indices=None) -> np.ndarray:
    """Full-field prediction (J, len(indices)) at an untried design point,
    column-major like generated and read fields.

    One pass: the query is normalized once and its correlations under every
    length-scale come from one exponent product. The modes are blended with
    the indicator weights, which sum to one; with centering on, the mean field is
    blended with the ordinary-kriging weights under ``mean_theta`` (or, for
    a model without it, with the indicator weights too) and added inside the
    recombining product as a coefficient row of ones.
    """
    idx = _time_indices(time_indices, model.num_snapshots)
    mu = model.coeff_mu[:, idx]
    r = _correlations(model, x_new)
    library, k = model.library, model.rank
    n = library.shape[0]
    w = model._indicator.solve(r[0])
    rows = np.empty(library.shape[1:])  # (K [+ 1], J) blended library rows
    if model._mean_kriging is None:
        np.matmul(w, library.reshape(n, -1), out=rows.reshape(-1))
    else:
        # both products read views of the library, without copying it
        np.matmul(w, library[:, :k].reshape(n, -1), out=rows[:k].reshape(-1))
        np.matmul(model._mean_kriging.solve(r[1]), library[:, k], out=rows[k])
    # the coefficients as predict_coefficients makes them, then the mean's 1
    beta = np.empty((rows.shape[0], mu.shape[1]))
    np.einsum("kn,kqn->kq", r[-k:], model.coeff_alpha[:, idx], out=beta[:k])
    beta[:k] += mu
    beta[k:] = 1.0
    # the (m, J) product's transpose is the column-major field, which a
    # KSPD1 writer takes without a transposing copy
    return (beta.T @ rows).T


def predict_snapshots(model: EmulatorModel, x_new,
                      time_indices=None) -> SnapshotSet:
    """Predict and wrap as a SnapshotSet (case_id 'predicted:<design hash>')."""
    idx = _time_indices(time_indices, model.num_snapshots)
    fld = predict_field(model, x_new, time_indices)
    x = np.atleast_1d(np.asarray(x_new, dtype=float))
    digest = hashlib.sha256(x.tobytes()).hexdigest()[:12]
    return SnapshotSet(
        case_id=f"predicted:{digest}",
        design=x,
        grid=model.grid,
        times=model.times[idx],
        field=fld,
        variable=model.variable,
        units=model.units,
    )


# ---------------------------------------------------------------------------
# KSEM1 and KSEM2 serialization

def save_model(model: EmulatorModel, path) -> None:
    """Write the emulator as a KSEM2 file, or as KSEM1 when it has no
    ``mean_theta`` (same conventions as KSPD1)."""
    n, d = model.design.shape
    j = model.num_points
    m = model.num_snapshots
    k_rank = model.rank
    rec = model.options_record

    w = Writer(MAGIC if model.mean_theta is None else MAGIC_MEAN)
    flags = 1 if model.centering else 0
    # word 8 = 1: each mode's length-scales, listed per time-step, are one vector
    w.u64(n, d, j, m, k_rank, flags, int(rec["restarts"]), 1,
          int(rec["num_modes"] or 0))
    lb, ub = rec["log_theta_bounds"]
    thr = rec["energy_threshold"]
    w.f64([
        np.nan if thr is None else float(thr),
        float(rec["nugget"]),
        float(rec["weight_theta"]),
        float(lb), float(ub),
    ])
    w.f64(model.ranges.lower)
    w.f64(model.ranges.upper)
    w.f64(model.grid)
    w.f64(model.times)
    w.f64(model.design)
    # per case: eigenvalues, modes (J x K) and coefficients (m x K), both
    # column-major, then the mean field when centered
    for lam, rows, beta in zip(model.eigenvalues, model.library,
                               model.coefficients.transpose(2, 0, 1)):
        w.f64(lam)
        w.f64(rows[:k_rank])
        w.f64(beta)
        w.f64(rows[k_rank:])
    w.f64(np.repeat(model.coeff_theta[:, None], m, axis=1))
    w.f64(model.coeff_mu)
    w.f64(model.coeff_sigma2)
    if model.mean_theta is not None:
        w.f64(model.mean_theta)
    w.dump(path)


def load_model(path) -> EmulatorModel:
    """Read a KSEM2 or KSEM1 file; one whose header word 8 is not 1, whose
    (K, m, d) length-scales differ across a mode's time-steps, whose
    mean-field length-scales are not positive and finite (or belong to an
    uncentered model), or whose length-scales or nugget the model's kriging
    refuses raises ValueError naming the file, and a non-finite value
    NonFiniteDataError. The stored coefficient means and variances are
    checked, not kept: the model derives them as ``train``'s does."""
    with open(path, "rb") as fh:
        r = Reader(fh, (MAGIC, MAGIC_MEAN))
        n, d, j, m, k_rank, flags, restarts, shared, explicit_k = r.u64(9)
        if shared != 1:
            raise ValueError(f"{path}: header word 8 is {shared}, not 1 (one theta per mode)")
        kriged_mean = r.magic == MAGIC_MEAN
        total = n * d + 2 * j + m + n * (k_rank + j * k_rank + m * k_rank + j) \
            + k_rank * m * (d + 2) + kriged_mean * d
        if min(n, d, j, m, k_rank) < 1 or total > MAX_ELEMENTS:
            raise DimensionOverflowError(f"{path}: implausible model dimensions")
        thr, nugget, weight_theta, lb, ub = r.f64(5)
        lower = r.f64(d)
        upper = r.f64(d)
        grid = r.f64(2 * j, shape=(j, 2))
        times = r.f64(m)
        design = r.f64(n * d, shape=(n, d))
        centering = bool(flags & 1)

        # per case: eigenvalues (K), modes (J x K) and coefficients (m x K),
        # both column-major, then the mean field (J) when centered; each is
        # read straight into its place in the arrays below
        r.check_f64(n * (k_rank * (1 + j + m) + centering * j))
        library = np.empty((n, k_rank + centering, j))
        eigenvalues = np.empty((n, k_rank))
        case_coeffs = np.empty((n, k_rank, m))
        sections = []
        for lam, rows, beta in zip(eigenvalues, library, case_coeffs):
            sections += (lam, rows[:k_rank], beta, rows[k_rank:])
        r.into(*sections)
        theta = r.f64(k_rank * m * d, shape=(k_rank, m, d))
        mu_sigma2 = r.f64(2 * k_rank * m)  # checked, then derived by the model
        mean_theta = r.f64(d) if kriged_mean else None
        r.finish()

    for arr in (grid, times, design, theta, mu_sigma2, library, eigenvalues, case_coeffs):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteDataError(f"{path}: payload contains non-finite values")
    if np.any(theta != theta[:, :1]):
        raise ValueError(f"{path}: a mode's length-scales differ across its time-steps")
    if kriged_mean and not (centering and np.all(mean_theta > 0.0)
                            and np.all(mean_theta < np.inf)):
        raise ValueError(
            f"{path}: mean-field length-scales must be positive and finite, "
            "and belong to a centered model")

    record = {
        "energy_threshold": None if np.isnan(thr) else float(thr),
        "num_modes": int(explicit_k) or None,
        "centering": centering,
        "nugget": float(nugget),
        "log_theta_bounds": (float(lb), float(ub)),
        "restarts": int(restarts),
        "weight_theta": float(weight_theta),
    }
    try:
        return EmulatorModel(
            design=design,
            ranges=DesignRanges(lower, upper),
            library=library,
            eigenvalues=eigenvalues,
            coefficients=np.ascontiguousarray(case_coeffs.transpose(1, 2, 0)),
            coeff_theta=theta[:, 0].copy(),
            grid=grid,
            times=times,
            centering=centering,
            options_record=record,
            mean_theta=mean_theta,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
