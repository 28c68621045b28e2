"""Kernel-smoothed POD emulator of spatiotemporal fields.

Training decomposes every case into spatial modes and temporal coefficients,
sign-aligns the mode libraries to the first case, fits one kriging model per
(mode, time-step) coefficient (held as stacked arrays), and configures
shared-parameter indicator kriging over the design space. The coefficient
models pool only their length-scale: it is searched once per mode, on all
time-steps together, while each (mode, time-step) model keeps its own mean,
variance and weights. Prediction at an untried design blends the per-case
modes (and mean fields) with normalized indicator weights and evaluates the
coefficient models, then recombines.

Design vectors are normalized to the unit cube before any kriging; the
squared-exponential correlation is not scale-invariant.
"""

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from ._binio import MAX_ELEMENTS, Reader, Writer
from .design import Cluster, DesignRanges
from .errors import (
    DegenerateWeightsError,
    DimensionOverflowError,
    IncompatibleCasesError,
    NonFiniteDataError,
)
from .kriging import (
    DEFAULT_LOG_THETA_BOUNDS,
    DEFAULT_NUGGET,
    CorrelationParams,
    FitOptions,
    IndicatorKriging,
    fit_fixed,
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
    "nw_weights",
    "predict_coefficients",
    "predict_field",
    "predict_modes",
    "predict_snapshots",
    "save_model",
    "train",
    "weight_vector",
]

MAGIC = "KSEM1"

# Below this magnitude the raw-weight sum is treated as degenerate; the
# normalizing division is refused rather than amplified.
WEIGHT_SUM_EPS = 1e-6


@dataclass(frozen=True)
class WeightVector:
    """Raw per-case blending weights and their sum-normalized form."""

    raw: np.ndarray
    normalized: np.ndarray


@dataclass(frozen=True)
class TrainOptions:
    """Knobs for emulator training.

    Exactly one truncation rule applies: ``num_modes`` when given, otherwise
    the cumulative ``energy_threshold``. ``cluster_filter`` restricts
    training to cases whose metadata cluster is listed (metadata must then
    be supplied, aligned with the cases). ``ranges`` defaults to the
    bounding box of the training designs. ``nugget``, ``log_theta_bounds``
    and ``restarts`` are checked as ``FitOptions`` and set the coefficient
    length-scale search, which runs once per mode on all its time-steps
    together: only the length-scale is pooled, and each (mode, time-step)
    model keeps its own mean, variance and weights. ``weight_theta`` fixes
    the (positive) indicator-weight parameter instead of fitting it.
    """

    energy_threshold: float = 0.99
    num_modes: int = None
    centering: bool = True
    cluster_filter: frozenset = None
    metadata: tuple = None
    ranges: DesignRanges = None
    nugget: float = DEFAULT_NUGGET
    log_theta_bounds: tuple = DEFAULT_LOG_THETA_BOUNDS
    restarts: int = 8
    weight_theta: float = None

    def __post_init__(self):
        if self.num_modes is None and not 0.0 < self.energy_threshold <= 1.0:
            raise ValueError("energy_threshold must lie in (0, 1]")
        if self.num_modes is not None and self.num_modes < 1:
            raise ValueError("num_modes must be at least 1")
        if self.cluster_filter is not None:
            members = frozenset(
                c if isinstance(c, Cluster) else Cluster(str(c))
                for c in self.cluster_filter
            )
            object.__setattr__(self, "cluster_filter", members)
        if self.weight_theta is not None and not 0.0 < float(self.weight_theta) < np.inf:
            raise ValueError("weight_theta must be positive and finite")
        self.fit_options  # raises ValueError on bad kriging options

    @property
    def fit_options(self) -> FitOptions:
        return FitOptions(self.nugget, self.log_theta_bounds, self.restarts)


@dataclass(frozen=True)
class EmulatorModel:
    """Trained emulator: the aligned case library and the coefficient and
    weight models, all held as arrays.

    ``library`` is one C-contiguous case-major stack (n, K + 1, J): per case
    the K aligned modes as rows (``modes.T``), then the mean field, which is
    absent without centering. ``eigenvalues`` (n, K) and ``coefficients``
    (K, m, n) are the cases' retained POD eigenvalues and aligned temporal
    coefficients. Prediction blends every library row with one product and
    recombines with the blended mean row as the coefficient 1.

    The coefficient GP of mode k at time-step q, on normalized inputs, has
    length-scales ``coeff_theta[k, q]``, mean ``coeff_mu[k, q]``, variance
    ``coeff_sigma2[k, q]`` and weights ``coeff_alpha[k, q] = R^-1 (y - mu)``.
    Training repeats each mode's length-scale across time-steps; the (K, m, d)
    layout also holds the per-(mode, time-step) length-scales of older files.
    """

    design: np.ndarray        # (n, d) physical design points
    ranges: DesignRanges
    rank: int
    library: np.ndarray       # (n, K [+ 1], J) modes as rows, then the mean
    eigenvalues: np.ndarray   # (n, K)
    coefficients: np.ndarray  # (K, m, n)
    coeff_theta: np.ndarray   # (K, m, d)
    coeff_mu: np.ndarray      # (K, m)
    coeff_sigma2: np.ndarray  # (K, m)
    coeff_alpha: np.ndarray   # (K, m, n)
    weight_params: CorrelationParams
    grid: np.ndarray          # (J, 2)
    times: np.ndarray         # (m,)
    centering: bool
    options_record: dict
    variable: str = "field"
    units: str = ""

    def __post_init__(self):
        design = np.atleast_2d(np.asarray(self.design, dtype=float))
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        unit = self.ranges.normalize(design)
        object.__setattr__(self, "_design_unit", unit)
        object.__setattr__(self, "_indicator", IndicatorKriging(unit, self.weight_params))

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
    """
    options = options or TrainOptions()
    cases = list(cases)
    if not cases:
        raise ValueError("at least one training case is required")

    if options.cluster_filter is not None:
        if options.metadata is None or len(options.metadata) != len(cases):
            raise ValueError(
                "cluster_filter requires metadata aligned with the cases"
            )
        kept = [
            (c, meta) for c, meta in zip(cases, options.metadata)
            if meta.cluster in options.cluster_filter
        ]
        if not kept:
            raise ValueError("cluster filter removed every training case")
        cases = [c for c, _ in kept]

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

    bases = [decompose(c, centering=options.centering) for c in cases]
    return _assemble(design, bases, ref, options)


def _assemble(design, bases, ref_case: SnapshotSet,
              options: TrainOptions) -> EmulatorModel:
    """Build the model from per-case bases (rank choice, alignment, fits)."""
    k_rank = _common_rank(bases, options)
    truncated = [truncate(b, num_modes=k_rank) for b in bases]
    aligned = [truncated[0]]
    aligned += [align_modes(truncated[0], b) for b in truncated[1:]]

    ranges = options.ranges or _derive_ranges(design)
    unit = ranges.normalize(design)

    coeff_tensor = np.stack([b.coeffs for b in aligned], axis=0)  # (n, m, K)
    # one length-scale per mode, from the (n, m) block of all its time-steps
    theta = np.repeat([[fit_theta(unit, coeff_tensor[:, :, k], options.fit_options)]
                       for k in range(k_rank)], coeff_tensor.shape[1], axis=1)
    coefficients = np.ascontiguousarray(coeff_tensor.transpose(2, 1, 0))
    mu, sigma2, alpha = fit_fixed(unit, theta, coefficients, options.nugget)
    library = np.empty((len(aligned), k_rank + options.centering, ref_case.num_points))
    for rows, basis in zip(library, aligned):
        rows[:k_rank] = basis.modes.T
        if options.centering:
            rows[k_rank] = basis.mean_field

    theta_w = options.weight_theta
    if theta_w is None:
        theta_w = fit_indicator_theta(
            unit, options.nugget, options.log_theta_bounds
        )
    weight_params = CorrelationParams.isotropic(
        theta_w, design.shape[1], options.nugget
    )

    record = {
        "energy_threshold": options.energy_threshold,
        "num_modes": options.num_modes,
        "centering": options.centering,
        "nugget": options.nugget,
        "log_theta_bounds": tuple(options.log_theta_bounds),
        "restarts": options.restarts,
        "shared_theta": True,
        "weight_theta": float(theta_w),
    }
    return EmulatorModel(
        design=design,
        ranges=ranges,
        rank=k_rank,
        library=library,
        eigenvalues=np.stack([b.eigenvalues for b in aligned]),
        coefficients=coefficients,
        coeff_theta=theta,
        coeff_mu=mu,
        coeff_sigma2=sigma2,
        coeff_alpha=alpha,
        weight_params=weight_params,
        grid=ref_case.grid,
        times=ref_case.times,
        centering=options.centering,
        options_record=record,
        variable=ref_case.variable,
        units=ref_case.units,
    )


def _normalize_query(model: EmulatorModel, x_new) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x_new, dtype=float))
    if x.shape != (model.dims,):
        raise ValueError(f"query must be a {model.dims}-vector")
    if not np.isfinite(x).all():
        raise ValueError("query design must be finite")
    return model.ranges.normalize(x)


def _normalize_raw(raw: np.ndarray, x_new) -> np.ndarray:
    total = raw.sum()
    if abs(total) < WEIGHT_SUM_EPS:
        raise DegenerateWeightsError(
            f"raw weights sum to {total:.3e} at design "
            f"{np.array2string(np.atleast_1d(np.asarray(x_new, dtype=float)))}"
        )
    return raw / total


def weight_vector(model: EmulatorModel, x_new) -> WeightVector:
    """Indicator-kriging blending weights of the training cases at x_new."""
    raw = model._indicator.weights(_normalize_query(model, x_new))
    return WeightVector(raw, _normalize_raw(raw, x_new))


def nw_weights(model: EmulatorModel, x_new, theta: float) -> WeightVector:
    """Gaussian-kernel smoother weights: the large-theta, dense-design limit
    of the indicator-kriging weights, on normalized design coordinates."""
    if not np.isfinite(theta) or theta <= 0.0:
        raise ValueError("theta must be positive")
    xu = _normalize_query(model, x_new)
    raw = np.exp(-theta * np.sum((model._design_unit - xu) ** 2, axis=1))
    return WeightVector(raw, _normalize_raw(raw, x_new))


def _blend(model: EmulatorModel, w: np.ndarray) -> np.ndarray:
    """Weighted sum over cases of every library row, (K [+ 1], J)."""
    library = model.library
    return (w @ library.reshape(library.shape[0], -1)).reshape(library.shape[1:])


def predict_modes(model: EmulatorModel, x_new) -> np.ndarray:
    """Normalized-weight average of the aligned per-case modes, (J, K)."""
    w = weight_vector(model, x_new).normalized
    return _blend(model, w)[:model.rank].T


def predict_coefficients(model: EmulatorModel, x_new,
                         time_indices=None) -> np.ndarray:
    """Coefficient predictions (K, len(indices)) from the per-(k, q) models."""
    sq = (model._design_unit - _normalize_query(model, x_new)) ** 2
    idx = _time_indices(time_indices, model.num_snapshots)
    r = np.exp(-(model.coeff_theta[:, idx] @ sq.T))
    return model.coeff_mu[:, idx] + np.einsum(
        "kqn,kqn->kq", r, model.coeff_alpha[:, idx])


def predict_field(model: EmulatorModel, x_new, time_indices=None) -> np.ndarray:
    """Full-field prediction (J, len(indices)) at an untried design point.

    Combines predicted modes and coefficients; with centering on, the mean
    field is blended with the same normalized weights as the modes and
    added inside the recombining product as a coefficient row of ones.
    """
    w = weight_vector(model, x_new).normalized
    beta = predict_coefficients(model, x_new, time_indices)
    if model.centering:
        beta = np.vstack((beta, np.ones(beta.shape[1])))
    return _blend(model, w).T @ beta


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
# KSEM1 serialization

def save_model(model: EmulatorModel, path) -> None:
    """Write the emulator as a KSEM1 file (same conventions as KSPD1)."""
    n, d = model.design.shape
    j = model.num_points
    m = model.num_snapshots
    k_rank = model.rank
    rec = model.options_record

    w = Writer(MAGIC)
    flags = 1 if model.centering else 0
    # the eighth word is 1 when each mode's length-scale is shared across
    # time-steps; files fitted per (mode, time-step) carry 0 and keep it
    w.u64(n, d, j, m, k_rank, flags,
          int(rec.get("restarts", 8)),
          1 if rec.get("shared_theta", True) else 0,
          int(rec.get("num_modes") or 0))
    lb, ub = rec.get("log_theta_bounds", DEFAULT_LOG_THETA_BOUNDS)
    thr = rec.get("energy_threshold")
    w.f64([
        np.nan if thr is None else float(thr),
        float(rec.get("nugget", DEFAULT_NUGGET)),
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
    w.f64(model.coeff_theta)
    w.f64(model.coeff_mu)
    w.f64(model.coeff_sigma2)
    w.dump(path)


def load_model(path) -> EmulatorModel:
    with open(path, "rb") as fh:
        r = Reader(fh, MAGIC)
        n, d, j, m, k_rank, flags, restarts, shared, explicit_k = r.u64(9)
        total = n * d + 2 * j + m + n * (k_rank + j * k_rank + m * k_rank + j) \
            + k_rank * m * (d + 2)
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
        mu = r.f64(k_rank * m, shape=(k_rank, m))
        sigma2 = r.f64(k_rank * m, shape=(k_rank, m))
        r.finish()

    ranges = DesignRanges(lower, upper)
    for arr in (grid, times, design, theta, mu, sigma2, library, eigenvalues,
                case_coeffs):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteDataError(f"{path}: payload contains non-finite values")
    if np.any(theta <= 0.0) or not 0.0 <= nugget < np.inf:
        raise ValueError(
            f"{path}: coefficient length-scales must be positive and the "
            "nugget finite and nonnegative"
        )

    coefficients = np.ascontiguousarray(case_coeffs.transpose(1, 2, 0))
    _, _, alpha = fit_fixed(ranges.normalize(design), theta, coefficients, nugget, mu)

    record = {
        "energy_threshold": None if np.isnan(thr) else float(thr),
        "num_modes": int(explicit_k) or None,
        "centering": centering,
        "nugget": float(nugget),
        "log_theta_bounds": (float(lb), float(ub)),
        "restarts": int(restarts),
        "shared_theta": bool(shared),
        "weight_theta": float(weight_theta),
    }
    return EmulatorModel(
        design=design,
        ranges=ranges,
        rank=int(k_rank),
        library=library,
        eigenvalues=eigenvalues,
        coefficients=coefficients,
        coeff_theta=theta,
        coeff_mu=mu,
        coeff_sigma2=sigma2,
        coeff_alpha=alpha,
        weight_params=CorrelationParams.isotropic(
            float(weight_theta), int(d), float(nugget)
        ),
        grid=grid,
        times=times,
        centering=centering,
        options_record=record,
    )
