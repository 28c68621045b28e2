"""Quantitative evaluation of predicted fields against reference fields.

Covers percent relative error, Gaussian kernel density estimates, film
thickness and spreading-angle extraction from thresholded snapshots, axial
error profiles of time-averaged thickness, spectral peak detection, and the
JSON evaluation report used by the command-line pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFilmError, UndefinedBaselineError
from .snapshots import SnapshotSet, structured_axes

__all__ = [
    "AxialErrorProfile",
    "GaussianKde",
    "axial_error_profile",
    "dominant_frequency",
    "evaluation_report",
    "film_thickness_profile",
    "kde",
    "qoi_series",
    "relative_error",
    "spreading_angle",
    "time_averaged_l2_error",
]

# Relative tolerance for matching stations / checking sampling uniformity.
_RTOL = 1e-9


def relative_error(x_sim, x_emu) -> float:
    """Percent relative error of an emulated value against a reference.

    Uses the magnitude of the reference in the denominator so the result is
    invariant under a common rescaling of both inputs.
    """
    if x_sim == 0.0:
        raise UndefinedBaselineError("reference value is zero")
    return abs(x_sim - x_emu) / abs(x_sim) * 100.0


class GaussianKde:
    """Gaussian kernel density estimate of a 1-D sample.

    With ``bandwidth=None`` Silverman's rule ``1.06 * std * n**(-1/5)`` is
    applied; degenerate samples (zero spread) then raise, since no automatic
    bandwidth exists.
    """

    def __init__(self, samples, bandwidth: float = None):
        samples = np.atleast_1d(np.asarray(samples, dtype=float))
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("at least one sample is required")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if bandwidth is None:
            bandwidth = _silverman(samples)
        if not np.isfinite(bandwidth) or bandwidth <= 0.0:
            raise ValueError(
                "bandwidth must be positive (supply one explicitly for "
                "degenerate samples)"
            )
        self.samples = samples
        self.bandwidth = float(bandwidth)
        self.n = samples.size

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.samples) / self.bandwidth
        dens = np.exp(-0.5 * z ** 2).sum(axis=-1)
        dens /= self.n * self.bandwidth * math.sqrt(2.0 * math.pi)
        return dens if dens.ndim else float(dens)

    def support(self, pad_sigmas: float = 6.0):
        pad = pad_sigmas * self.bandwidth
        return float(self.samples.min() - pad), float(self.samples.max() + pad)


def _silverman(samples: np.ndarray) -> float:
    """Silverman's rule 1.06 * std * n**(-1/5); zero for a single sample."""
    sigma = samples.std(ddof=1) if samples.size > 1 else 0.0
    return 1.06 * sigma * samples.size ** (-0.2)


def kde(samples, bandwidth: float = None) -> GaussianKde:
    """Build a Gaussian kernel density estimate; see GaussianKde."""
    return GaussianKde(samples, bandwidth)


def _default_threshold(values: np.ndarray) -> float:
    return 0.5 * (float(values.min()) + float(values.max()))


def _film(values, grid, threshold: float, ndim: int = 2):
    """Wall-attached film runs of a snapshot (J,) or a history (J, m).

    The one film pass behind every film quantity: it factors the grid,
    applies the default threshold (the midpoint of the value range), scatters
    the values onto the (nx, nr[, m]) tensor and scans every station inward
    from the outer wall (largest radius). ``ndim`` is the number of value
    axes the caller accepts. Returns (xs, rs, run), where run, (nx,) or
    (nx, m), counts the contiguous points with value >= threshold that start
    at the wall.
    """
    values = np.asarray(values, dtype=float)
    xs, rs, ix, ir = structured_axes(grid)
    if values.ndim != ndim or values.shape[0] != ix.size:
        raise ValueError("snapshot length does not match the grid")
    if threshold is None:
        threshold = _default_threshold(values)
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    val = np.empty((xs.size, rs.size) + values.shape[1:])
    val[ix, ir] = values
    gaps = ~np.flip(val >= threshold, axis=1)
    return xs, rs, np.where(gaps.any(axis=1), gaps.argmax(axis=1), rs.size)


def _thickness(run: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Radial extent of each film run; zero where there is no run."""
    inner = rs[np.clip(rs.size - run, 0, rs.size - 1)]
    return np.where(run > 0, rs[-1] - inner, 0.0)


def film_thickness_profile(values, grid, threshold: float = None):
    """Film thickness versus axial station for one snapshot.

    Thickness at a station is the radial extent of the contiguous run of
    points with value >= threshold that touches the outer wall (largest
    radius); zero when the wall point itself is below threshold. The default
    threshold is the midpoint of the snapshot's value range.

    Returns (stations, thickness) arrays.
    """
    xs, rs, run = _film(values, grid, threshold, ndim=1)
    return xs, _thickness(run, rs)


def _station_index(xs: np.ndarray, station: float) -> int:
    tol = _RTOL * max(1.0, abs(station))
    hits = np.nonzero(np.abs(xs - station) <= tol)[0]
    if hits.size != 1:
        raise ValueError(f"station {station} is not on the grid")
    return int(hits[0])


def _angles(xs, rs, run, station_pair) -> np.ndarray:
    """Spreading angle (deg) of every snapshot's film runs ``run``.

    The final arc tangent is libm's ``math.atan2`` per snapshot, so the
    angles do not depend on the SIMD path of ``np.arctan2``.
    """
    x1, x2 = station_pair
    if x2 <= x1:
        raise ValueError("stations must satisfy x2 > x1")
    mids = []
    for station in (x1, x2):
        at = run[_station_index(xs, station)]
        if np.any(at < 1):
            raise NoFilmError(f"no film band at station x={station}")
        mids.append(0.5 * (rs[-1] + rs[rs.size - at]))
    rise = np.atleast_1d(mids[1] - mids[0])
    return np.array([math.degrees(math.atan2(dr, x2 - x1)) for dr in rise])


def spreading_angle(values, grid, station_pair, threshold: float = None) -> float:
    """Cone angle (deg) of the film mid-surface between two axial stations.

    The mid-surface radius at a station is the midpoint of the thresholded
    wall-attached band; the angle is the arc tangent of its slope between
    the two stations.
    """
    xs, rs, run = _film(values, grid, threshold, ndim=1)
    return float(_angles(xs, rs, run, station_pair)[0])


def dominant_frequency(series, dt):
    """Frequency (Hz) of the largest non-DC DFT bin, or None for flat input.

    ``dt`` may be the scalar sampling interval or the time vector itself
    (checked for uniform spacing).
    """
    series = np.atleast_1d(np.asarray(series, dtype=float))
    m = series.size
    if m < 4:
        raise ValueError("at least four samples are required")
    dt_arr = np.atleast_1d(np.asarray(dt, dtype=float))
    if dt_arr.size > 1:
        steps = np.diff(dt_arr)
        if np.any(steps <= 0.0) or \
                np.max(np.abs(steps - steps.mean())) > _RTOL * abs(steps.mean()):
            raise ValueError("sampling instants are not uniformly spaced")
        step = float(steps.mean())
    else:
        step = float(dt_arr[0])
    if step <= 0.0:
        raise ValueError("sampling interval must be positive")

    mags = np.abs(np.fft.rfft(series))
    if np.all(mags[1:] < 1e-12 * (mags[0] + 1.0)):
        return None
    k = int(np.argmax(mags[1:])) + 1
    return k / (m * step)


@dataclass(frozen=True)
class AxialErrorProfile:
    """Percent error of time-averaged thickness per station, plus its mean.

    ``eps`` holds NaN at the excluded stations (zero reference thickness).
    """

    stations: np.ndarray
    eps: np.ndarray
    mean_eps: float
    excluded_stations: np.ndarray


def _film_pair(sim: SnapshotSet, emu: SnapshotSet, threshold: float):
    """Film runs of a simulated and an emulated set on the same grid and
    times, both cut at one threshold (default: the midpoint of the
    simulated set's global value range)."""
    if sim.grid.tobytes() != emu.grid.tobytes() or \
            sim.times.tobytes() != emu.times.tobytes():
        raise ValueError("simulation and emulation grids/times differ")
    if threshold is None:
        threshold = _default_threshold(sim.field)
    xs, rs, run_sim = _film(sim.field, sim.grid, threshold)
    _, _, run_emu = _film(emu.field, emu.grid, threshold)
    return xs, rs, run_sim, run_emu


def _axial_profile(xs, rs, run_sim, run_emu) -> AxialErrorProfile:
    t_sim = _thickness(run_sim, rs).mean(axis=1)
    t_emu = _thickness(run_emu, rs).mean(axis=1)
    included = t_sim != 0.0
    eps = np.full(xs.size, np.nan)
    eps[included] = np.abs(t_sim[included] - t_emu[included]) \
        / np.abs(t_sim[included]) * 100.0
    mean_eps = float(eps[included].mean()) if included.any() else float("nan")
    return AxialErrorProfile(xs, eps, mean_eps, xs[~included])


def axial_error_profile(sim: SnapshotSet, emu: SnapshotSet,
                        threshold: float = None) -> AxialErrorProfile:
    """Station-wise percent error of time-averaged film thickness.

    Stations whose simulated time-averaged thickness is zero are excluded
    from the mean and reported separately. The default threshold is the
    midpoint of the simulated set's global value range, applied to both
    inputs.
    """
    return _axial_profile(*_film_pair(sim, emu, threshold))


def qoi_series(ss: SnapshotSet, kind: str, threshold: float = None,
               station: float = None, station_pair=None) -> np.ndarray:
    """Per-snapshot scalar series: exit film thickness or spreading angle.

    ``kind`` is "thickness" (at the given station, default the last axial
    station) or "angle" (over ``station_pair``). One threshold, defaulting
    to the midpoint of the set's global value range, is used for every
    snapshot.
    """
    xs, rs, run = _film(ss.field, ss.grid, threshold)
    if kind == "thickness":
        i = -1 if station is None else _station_index(xs, station)
        return _thickness(run[i], rs)
    if kind == "angle":
        if station_pair is None:
            raise ValueError("angle series requires a station_pair")
        return _angles(xs, rs, run, station_pair)
    raise ValueError(f"unknown quantity kind {kind!r}")


def time_averaged_l2_error(sim: SnapshotSet, emu: SnapshotSet) -> float:
    """Mean over snapshots of the relative L2 field error."""
    if sim.field.shape != emu.field.shape:
        raise ValueError("field shapes differ")
    num = np.linalg.norm(sim.field - emu.field, axis=0)
    den = np.linalg.norm(sim.field, axis=0)
    if np.any(den == 0.0):
        raise UndefinedBaselineError("reference snapshot has zero norm")
    return float(np.mean(num / den))


def _default_station_pair(xs: np.ndarray):
    i1 = int(0.6 * (xs.size - 1))
    i2 = int(0.9 * (xs.size - 1))
    if i2 <= i1:
        i1, i2 = xs.size - 2, xs.size - 1
    return float(xs[i1]), float(xs[i2])


def evaluation_report(sim: SnapshotSet, emu: SnapshotSet,
                      threshold: float = None, station_pair=None,
                      bandwidth: float = None) -> dict:
    """Per-case evaluation dictionary (JSON-ready).

    Scalars are time means of the per-snapshot series; the density entries
    share one bandwidth (resolved from the simulated thickness series when
    automatic) and one evaluation grid.
    """
    xs, rs, run_sim, run_emu = _film_pair(sim, emu, threshold)
    if station_pair is None:
        station_pair = _default_station_pair(xs)

    angle_sim = _angles(xs, rs, run_sim, station_pair)
    angle_emu = _angles(xs, rs, run_emu, station_pair)
    thick_sim = _thickness(run_sim[-1], rs)
    thick_emu = _thickness(run_emu[-1], rs)
    axial = _axial_profile(xs, rs, run_sim, run_emu)

    if bandwidth is None:
        bandwidth = _silverman(thick_sim)
        if bandwidth == 0.0:
            # constant series carry no automatic bandwidth; pick a small one
            # relative to the value scale so the report stays well defined
            bandwidth = max(0.05 * abs(float(thick_sim.mean())), 1e-6)
    sim_kde = kde(thick_sim, bandwidth)
    emu_kde = kde(thick_emu, sim_kde.bandwidth)
    lo = min(sim_kde.support()[0], emu_kde.support()[0])
    hi = max(sim_kde.support()[1], emu_kde.support()[1])
    dens_grid = np.linspace(lo, hi, 64)

    def scalar_block(series_sim, series_emu):
        s_mean = float(series_sim.mean())
        e_mean = float(series_emu.mean())
        eps = None if s_mean == 0.0 else relative_error(s_mean, e_mean)
        return {"sim": s_mean, "emu": e_mean, "eps": eps}

    return {
        "spreading_angle": scalar_block(angle_sim, angle_emu),
        "thickness": scalar_block(thick_sim, thick_emu),
        "axial_profile": [
            {"x": float(x), "eps": None if np.isnan(e) else float(e)}
            for x, e in zip(axial.stations, axial.eps)
        ],
        "axial_eps_mean": axial.mean_eps,
        "excluded_stations": [float(x) for x in axial.excluded_stations],
        "kde": {
            "grid": [float(v) for v in dens_grid],
            "sim_density": [float(v) for v in sim_kde(dens_grid)],
            "emu_density": [float(v) for v in emu_kde(dens_grid)],
        },
    }
