import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from kspod import metrics
from kspod.errors import NoFilmError, UndefinedBaselineError, UnsupportedGridError
from kspod.metrics import (
    axial_error_profile,
    dominant_frequency,
    evaluation_report,
    film_thickness_profile,
    kde,
    qoi_series,
    relative_error,
    spreading_angle,
    time_averaged_l2_error,
)
from kspod.snapshots import SnapshotSet, make_grid, make_times


def step_snapshot(nx=6, rs=(0.0, 1.0, 2.0, 3.0, 3.5, 4.0), low=100.0,
                  high=1000.0, interface=3.0):
    """Field equal to `high` for r >= interface and `low` below; wall at
    max(rs)."""
    xs = np.linspace(0.0, 10.0, nx)
    rs = np.asarray(rs, dtype=float)
    grid = np.column_stack([
        np.repeat(xs, rs.size), np.tile(rs, xs.size)
    ])
    values = np.where(grid[:, 1] >= interface, high, low)
    return values, grid, xs, rs


class TestRelativeError:
    def test_reference_pair(self):
        # direct arithmetic oracle; the unrounded value is 0.1324%, which a
        # two-decimal display would round to 0.14%
        value = relative_error(52.85, 52.92)
        oracle = abs(52.85 - 52.92) / 52.85 * 100.0
        assert value == pytest.approx(oracle, rel=1e-14)
        assert value == pytest.approx(0.1324, abs=1e-4)
        assert abs(value - 0.14) > 0.005

    def test_equal_values(self):
        assert relative_error(3.7, 3.7) == 0.0

    def test_zero_baseline(self):
        with pytest.raises(UndefinedBaselineError):
            relative_error(0.0, 1.0)

    def test_scale_invariance(self):
        base = relative_error(2.0, 2.5)
        for c in (0.01, 7.0, -3.0):
            assert relative_error(c * 2.0, c * 2.5) == pytest.approx(
                base, rel=1e-12
            )


class TestKde:
    def test_single_sample_peak(self):
        density = kde([0.0], bandwidth=1.0)
        assert density(0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi),
                                             rel=1e-12)

    def test_symmetry(self):
        density = kde([-2.0, 2.0], bandwidth=0.7)
        xs = np.linspace(0.0, 5.0, 31)
        assert np.allclose(density(xs), density(-xs), atol=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=40) * 2.0 + 1.0
        density = kde(samples)
        lo, hi = density.support(6.0)
        xs = np.linspace(lo, hi, 4001)
        integral = trapezoid(density(xs), xs)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_silverman_bandwidth(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=25)
        density = kde(samples)
        expected = 1.06 * samples.std(ddof=1) * 25 ** (-0.2)
        assert density.bandwidth == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_order_invariant(self):
        rng = np.random.default_rng(2)
        samples = rng.uniform(size=15)
        xs = np.linspace(-1.0, 2.0, 50)
        a = kde(samples, 0.2)(xs)
        b = kde(samples[::-1], 0.2)(xs)
        assert np.all(a >= 0.0)
        assert np.allclose(a, b, atol=1e-15)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            kde([])

    def test_degenerate_auto_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            kde([1.0, 1.0, 1.0])


class TestFilmThickness:
    def test_step_field(self):
        values, grid, xs, rs = step_snapshot()
        stations, thickness = film_thickness_profile(values, grid, 550.0)
        assert np.array_equal(stations, xs)
        assert np.allclose(thickness, 1.0, atol=1e-12)

    def test_all_below_threshold(self):
        values, grid, xs, _ = step_snapshot(high=400.0)
        _, thickness = film_thickness_profile(values, grid, 550.0)
        assert np.all(thickness == 0.0)

    def test_all_above_threshold(self):
        values, grid, _, rs = step_snapshot(low=900.0)
        _, thickness = film_thickness_profile(values, grid, 550.0)
        assert np.allclose(thickness, rs[-1] - rs[0], atol=1e-12)

    def test_detached_band_ignored(self):
        # band above threshold that does not touch the wall: thickness 0
        xs = np.array([0.0, 1.0])
        rs = np.array([0.0, 1.0, 2.0, 3.0])
        grid = np.column_stack([np.repeat(xs, 4), np.tile(rs, 2)])
        values = np.where(grid[:, 1] == 1.0, 100.0, 0.0)
        _, thickness = film_thickness_profile(values, grid, 50.0)
        assert np.all(thickness == 0.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        grid = make_grid(5, 8, (0.0, 4.0), (0.0, 2.0))
        values = rng.uniform(size=grid.shape[0]) * 100.0
        thresholds = np.linspace(5.0, 95.0, 10)
        prev = None
        for thr in thresholds:
            _, thickness = film_thickness_profile(values, grid, thr)
            if prev is not None:
                assert np.all(thickness <= prev + 1e-12)
            prev = thickness

    def test_default_threshold_midpoint(self):
        values, grid, _, _ = step_snapshot()
        _, auto = film_thickness_profile(values, grid)
        _, manual = film_thickness_profile(values, grid, 550.0)
        assert np.array_equal(auto, manual)

    def test_unstructured_grid_rejected(self):
        grid = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        with pytest.raises(UnsupportedGridError):
            film_thickness_profile(np.zeros(3), grid, 0.5)


class TestSpreadingAngle:
    def field_with_mid_radii(self):
        # wall at r = 2; station x=0 fully above threshold (mid 1), station
        # x=1 only the wall point above (mid 2): slope 1 over dx 1 -> 45 deg
        xs = np.array([0.0, 1.0])
        rs = np.array([0.0, 1.0, 2.0])
        grid = np.column_stack([np.repeat(xs, 3), np.tile(rs, 2)])
        values = np.array([10.0, 10.0, 10.0, 0.0, 0.0, 10.0])
        return values, grid

    def test_forty_five_degrees(self):
        values, grid = self.field_with_mid_radii()
        angle = spreading_angle(values, grid, (0.0, 1.0), threshold=5.0)
        assert angle == pytest.approx(45.0, abs=1e-12)

    def test_constant_radius_zero_angle(self):
        values, grid, xs, _ = step_snapshot()
        angle = spreading_angle(values, grid, (xs[0], xs[-1]), threshold=550.0)
        assert angle == pytest.approx(0.0, abs=1e-12)

    def test_equal_stations_rejected(self):
        values, grid, xs, _ = step_snapshot()
        with pytest.raises(ValueError):
            spreading_angle(values, grid, (xs[1], xs[1]), threshold=550.0)

    def test_missing_film_raises(self):
        values, grid, xs, _ = step_snapshot(high=100.0)
        with pytest.raises(NoFilmError):
            spreading_angle(values, grid, (xs[0], xs[-1]), threshold=550.0)

    def test_station_off_grid(self):
        values, grid, xs, _ = step_snapshot()
        with pytest.raises(ValueError):
            spreading_angle(values, grid, (0.123, xs[-1]), threshold=550.0)


class TestDominantFrequency:
    def test_bin_aligned_cosine(self):
        m, dt = 1000, 1e-3
        t = np.arange(m) * dt
        series = np.cos(2.0 * np.pi * 50.0 * t)
        assert dominant_frequency(series, dt) == 50.0

    def test_larger_amplitude_wins(self):
        m, dt = 1000, 1e-3
        t = np.arange(m) * dt
        series = 3.0 * np.cos(2.0 * np.pi * 20.0 * t) \
            + 1.0 * np.cos(2.0 * np.pi * 70.0 * t)
        assert dominant_frequency(series, dt) == 20.0

    def test_constant_series_none(self):
        assert dominant_frequency(np.full(16, 2.5), 0.1) is None

    def test_offset_invariance(self):
        m, dt = 256, 1e-2
        t = np.arange(m) * dt
        series = np.sin(2.0 * np.pi * 5.0 * t)
        assert dominant_frequency(series, dt) == \
            dominant_frequency(series + 42.0, dt)

    def test_accepts_time_vector(self):
        m, dt = 128, 1e-3
        t = np.arange(m) * dt
        series = np.cos(2.0 * np.pi * 125.0 * t)
        assert dominant_frequency(series, t) == pytest.approx(125.0, rel=1e-12)

    def test_non_uniform_times_rejected(self):
        t = np.array([0.0, 0.1, 0.25, 0.3])
        with pytest.raises(ValueError):
            dominant_frequency(np.ones(4), t)

    def test_too_short(self):
        with pytest.raises(ValueError):
            dominant_frequency([1.0, 2.0], 0.1)


def thickness_sets(inner_sim, inner_emu):
    """Pair of single-variable sets whose wall band starts at the given
    inner radii (thickness = 4 - inner)."""
    xs = np.linspace(0.0, 5.0, 4)
    rs = np.array([0.0, 2.95, 3.0, 3.95, 4.0])
    grid = np.column_stack([np.repeat(xs, rs.size), np.tile(rs, xs.size)])
    times = make_times(3, 1e-3)

    def build(inner, case_id):
        values = np.where(grid[:, 1] >= inner - 1e-12, 1000.0, 100.0)
        fld = np.repeat(values[:, None], times.size, axis=1)
        return SnapshotSet(case_id, [1.0], grid, times, fld)

    return build(inner_sim, "sim"), build(inner_emu, "emu")


class TestAxialErrorProfile:
    def test_identical_sets_zero(self):
        sim, _ = thickness_sets(3.0, 3.0)
        profile = axial_error_profile(sim, sim, threshold=550.0)
        assert np.allclose(profile.eps, 0.0, atol=1e-12)
        assert profile.mean_eps == pytest.approx(0.0, abs=1e-12)

    def test_five_percent_everywhere(self):
        sim, emu = thickness_sets(3.0, 2.95)  # thickness 1.00 vs 1.05
        profile = axial_error_profile(sim, emu, threshold=550.0)
        assert np.allclose(profile.eps, 5.0, atol=1e-9)
        assert profile.mean_eps == pytest.approx(5.0, abs=1e-9)

    def test_zero_thickness_stations_excluded(self):
        sim, emu = thickness_sets(3.0, 3.0)
        # kill the film at the first simulated station
        fld = sim.field.copy()
        fld[:5, :] = 100.0
        sim2 = SnapshotSet("sim2", sim.design, sim.grid, sim.times, fld)
        profile = axial_error_profile(sim2, emu, threshold=550.0)
        assert profile.excluded_stations.size == 1
        assert np.isnan(profile.eps[0])
        assert np.isfinite(profile.mean_eps)

    def test_grid_mismatch(self):
        sim, emu = thickness_sets(3.0, 2.95)
        other = SnapshotSet("x", emu.design, emu.grid + 1.0, emu.times,
                            emu.field)
        with pytest.raises(ValueError):
            axial_error_profile(sim, other)


class TestQoiSeriesAndReport:
    def test_thickness_series(self):
        sim, _ = thickness_sets(3.0, 2.95)
        series = qoi_series(sim, "thickness", threshold=550.0)
        assert series.shape == (3,)
        assert np.allclose(series, 1.0, atol=1e-9)

    def test_angle_series(self):
        sim, _ = thickness_sets(3.0, 2.95)
        xs = np.unique(sim.grid[:, 0])
        series = qoi_series(sim, "angle", threshold=550.0,
                            station_pair=(xs[0], xs[-1]))
        assert np.allclose(series, 0.0, atol=1e-12)

    def test_report_schema(self):
        # constant-in-time series: the KDE bandwidth must be explicit and the
        # zero-baseline angle eps comes back as None
        sim, emu = thickness_sets(3.0, 2.95)
        report = evaluation_report(sim, emu, threshold=550.0, bandwidth=0.05)
        assert set(report) >= {"spreading_angle", "thickness", "axial_profile",
                               "axial_eps_mean", "kde"}
        assert report["thickness"]["eps"] == pytest.approx(5.0, abs=1e-9)
        assert report["spreading_angle"]["eps"] is None
        assert len(report["kde"]["grid"]) == 64
        assert len(report["axial_profile"]) == 4

    def test_time_averaged_l2(self):
        sim, emu = thickness_sets(3.0, 2.95)
        assert time_averaged_l2_error(sim, sim) == 0.0
        assert time_averaged_l2_error(sim, emu) > 0.0


def moving_film_set(m=5):
    """Set whose wall band thins downstream and grows in time, so thickness
    and spreading angle change with both station and snapshot."""
    grid = make_grid(6, 9, (0.0, 5.0), (0.0, 4.0))
    times = make_times(m, 1e-3)
    inner = 3.2 - 0.15 * grid[:, :1] * (1.0 + np.arange(m))
    fld = np.where(grid[:, 1:] >= np.clip(inner, 0.4, None), 1000.0, 100.0)
    return SnapshotSet("moving", [1.0], grid, times, fld)


def wall_band_inner(values, grid, threshold, station):
    """Reference loop: inner radius of the band of values >= threshold that
    touches the wall (largest radius) at one station, or None."""
    column = sorted((r, v) for (x, r), v in zip(grid, values) if x == station)
    inner = None
    for r, v in reversed(column):
        if v < threshold:
            break
        inner = r
    return inner


class TestFilmPass:
    """Every film quantity comes from one pass over each snapshot set."""

    def test_series_match_reference_loop(self):
        # the history path and the single-snapshot functions both give each
        # snapshot's value bit for bit as a point-by-point scan would
        ss = moving_film_set()
        xs, rs = np.unique(ss.grid[:, 0]), np.unique(ss.grid[:, 1])
        pair = (xs[1], xs[4])
        angles = qoi_series(ss, "angle", 550.0, station_pair=pair)
        exits = qoi_series(ss, "thickness", 550.0)
        mids = qoi_series(ss, "thickness", 550.0, station=xs[2])
        for q in range(ss.num_snapshots):
            snap = ss.field[:, q]
            inner = {x: wall_band_inner(snap, ss.grid, 550.0, x) for x in xs}
            radii = [0.5 * (rs[-1] + inner[x]) for x in pair]
            angle = math.degrees(math.atan2(radii[1] - radii[0], pair[1] - pair[0]))
            assert angles[q] == angle == spreading_angle(snap, ss.grid, pair, 550.0)
            thickness = [0.0 if inner[x] is None else rs[-1] - inner[x] for x in xs]
            _, profile = film_thickness_profile(snap, ss.grid, 550.0)
            assert profile.tolist() == thickness
            assert exits[q] == thickness[-1] and mids[q] == thickness[2]
        assert np.unique(angles).size > 1 and np.unique(exits).size > 1

    def test_angle_series_names_the_station_without_film(self):
        ss = moving_film_set()
        xs = np.unique(ss.grid[:, 0])
        fld = ss.field.copy()
        fld[(ss.grid[:, 0] == xs[4]), 3] = 100.0  # one snapshot loses its film
        gap = SnapshotSet("gap", ss.design, ss.grid, ss.times, fld)
        with pytest.raises(NoFilmError, match=f"station x={xs[4]}"):
            qoi_series(gap, "angle", 550.0, station_pair=(xs[1], xs[4]))

    def test_report_factors_each_grid_once(self, monkeypatch):
        calls = []
        real = metrics.structured_axes

        def counted(grid):
            calls.append(grid)
            return real(grid)

        monkeypatch.setattr(metrics, "structured_axes", counted)
        sim, emu = thickness_sets(3.0, 2.95)
        evaluation_report(sim, emu, threshold=550.0, bandwidth=0.05)
        assert len(calls) <= 2

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("quantity", ["thickness", "axial", "angle", "report"])
    def test_non_finite_threshold_rejected(self, quantity, threshold):
        sim, emu = thickness_sets(3.0, 2.95)
        pair = (0.0, 5.0)
        compute = {
            "thickness": lambda: qoi_series(sim, "thickness", threshold),
            "axial": lambda: axial_error_profile(sim, emu, threshold),
            "angle": lambda: spreading_angle(sim.field[:, 0], sim.grid, pair,
                                             threshold),
            "report": lambda: evaluation_report(sim, emu, threshold,
                                                bandwidth=0.05),
        }[quantity]
        with pytest.raises(ValueError, match="threshold must be finite"):
            compute()
