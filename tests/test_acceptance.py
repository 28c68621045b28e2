"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end gate (criterion 7) trains the full desk-scale model
through the command-line pipeline; later criteria reuse its artifacts.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

import kspod
import kspod.cli as cli
from kspod.errors import UndefinedBaselineError
from kspod.kriging import (DEFAULT_NUGGET, FitOptions, OrdinaryKriging, fit_indicator_theta,
                           fit_theta)
from kspod.metrics import dominant_frequency, film_thickness_profile, kde, relative_error, spreading_angle
from kspod.pod import decompose, reconstruct, truncate
from kspod.snapshots import SnapshotSet, read_dataset, write_dataset


def _pass(number: int, message: str) -> None:
    print(f"\nPASS criterion {number:02d}: {message}")


DESK_CONFIG = {
    "seed": 0,
    "design": {
        "dims": 3,
        "slices": 5,
        "per_slice": 6,
        "ranges": [[35.0, 62.2], [0.27, 1.53], [0.85, 3.40]],
    },
    "synth": {
        "nx": 50, "nr": 50,
        "x_range": [0.0, 50.0], "r_range": [0.0, 4.5],
        "snapshots": 100, "dt": 1e-4,
    },
    "pod": {"centering": True, "energy_threshold": 0.99, "num_modes": None},
    "test": {"count": 8, "shrink": 0.75},
}


@pytest.fixture(scope="module")
def desk_pipeline(tmp_path_factory):
    """Full desk-scale pipeline run: 30 training cases, 8 held-out points."""
    workdir = tmp_path_factory.mktemp("desk")
    config_path = workdir / "desk.json"
    config_path.write_text(json.dumps(DESK_CONFIG), encoding="utf-8")
    start = time.perf_counter()
    code = cli.main(["pipeline", "--config", str(config_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads((workdir / "report.json").read_text("utf-8"))
    return {
        "workdir": workdir,
        "elapsed": elapsed,
        "report": report,
        "model": kspod.load_model(workdir / "model.ksem"),
    }


def test_criterion_01_pod_exactness():
    rng = np.random.default_rng(1001)
    fld = rng.normal(size=(500, 200))
    start = time.perf_counter()
    basis = decompose(fld, centering=False)
    elapsed = time.perf_counter() - start
    recon = reconstruct(basis)
    rel = np.linalg.norm(recon - fld) / np.linalg.norm(fld)
    assert rel < 1e-10
    sing = np.linalg.svd(fld, compute_uv=False)  # independent dense oracle
    assert basis.num_modes == 200
    assert np.abs(basis.eigenvalues - sing ** 2).max() <= 1e-10 * sing[0] ** 2
    assert elapsed < 5.0
    _pass(1, f"500x200 reconstruction {rel:.2e}, spectrum matches dense SVD, "
             f"{elapsed:.2f}s")


def test_criterion_02_pod_energy():
    t = np.arange(16) / 16.0
    fld = (2.0 * np.outer([1.0, 0.0, 0.0], np.cos(2.0 * np.pi * t))
           + 1.0 * np.outer([0.0, 1.0, 0.0], np.sin(2.0 * np.pi * t)))
    basis = decompose(fld, centering=False)
    fractions = basis.energy_fractions
    assert fractions[0] == pytest.approx(0.8, abs=1e-10)
    assert fractions[1] == pytest.approx(0.2, abs=1e-10)
    rng = np.random.default_rng(1002)
    wide = decompose(rng.normal(size=(80, 40)), centering=False)
    cum = np.cumsum(wide.energy_fractions)
    assert np.all(np.diff(cum) >= -1e-15)
    assert cum[-1] == pytest.approx(1.0, abs=1e-12)
    _pass(2, "analytic energy split {0.8, 0.2}; accumulation curve "
             "nondecreasing with terminal value 1")


def _kriged(x_pts, y):
    """The emulator's coefficient path for one dataset: fit_theta, then
    OrdinaryKriging(...).fit, both at the default nugget. Returns the
    length-scales and the conditional mean mu + r . alpha at a query (d,) or
    a block (q, d)."""
    theta = fit_theta(x_pts, y)
    mu, _, alpha = OrdinaryKriging(x_pts, theta).fit(y)

    def predict(x_new):
        return mu + np.exp(-((x_pts - x_new[..., None, :]) ** 2) @ theta) @ alpha
    return theta, predict


def test_criterion_03_kriging_interpolation():
    # Random sizes, designs and observations. Inputs come from the design
    # generator (bin-centered, so pairwise spacing is at least 1/n per
    # dimension): with a 1e-8 nugget, near-coincident inputs cannot be
    # interpolated to 1e-6 by any length scale inside the search box.
    rng = np.random.default_rng(1003)
    assert DEFAULT_NUGGET == FitOptions().nugget == 1e-8
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 5))
        x_pts = kspod.generate_slhd(1, n, d, seed=trial).points
        y = rng.normal(size=n)
        _, predict = _kriged(x_pts, y)
        tol = 1e-6 * np.ptp(y)
        errs = np.abs(predict(x_pts) - y)
        worst = max(worst, float(errs.max() / np.ptp(y)))
        assert np.all(errs <= tol)
    _pass(3, f"100 random fits interpolate; worst |err|/range = {worst:.2e}")


def test_criterion_04_predictor_matches_dense_solve():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for n in (3, 10, 25, 50):
        x_pts = rng.uniform(size=(n, 3))
        y = rng.normal(size=n)
        theta, predict = _kriged(x_pts, y)
        nugget = DEFAULT_NUGGET
        diffs = (x_pts[:, None, :] - x_pts[None, :, :]) ** 2
        rinv = np.linalg.inv(np.exp(-diffs @ theta) + nugget * np.eye(n))
        ones = np.ones(n)
        mu = (ones @ rinv @ y) / (ones @ rinv @ ones)
        for probe in rng.uniform(-0.2, 1.2, size=(5, 3)):
            r = np.exp(-((x_pts - probe) ** 2) @ theta)
            oracle = mu + r @ rinv @ (y - mu * ones)
            delta = abs(predict(probe) - oracle)
            worst = max(worst, delta)
            assert delta <= 1e-10
    _pass(4, f"factorized predictor equals dense solve, worst |delta| = {worst:.1e}")


def test_criterion_05_indicator_weight_identities():
    design = kspod.generate_slhd(5, 6, 3, seed=0)
    x_pts = design.points
    theta_w = fit_indicator_theta(x_pts)
    weights = OrdinaryKriging(x_pts, np.full(3, theta_w)).weights

    for j in range(x_pts.shape[0]):
        w = weights(x_pts[j])
        unit = np.zeros(x_pts.shape[0])
        unit[j] = 1.0
        assert np.abs(w - unit).max() < 1e-6

    rng = np.random.default_rng(1005)
    worst_sum = 0.0
    for _ in range(1000):
        probe = rng.uniform(size=3)
        total = weights(probe).sum()
        worst_sum = max(worst_sum, abs(total - 1.0))
    assert worst_sum <= 1e-8

    # negatives appear at moderate shared length scales; the fitted theta
    # is the smallest that keeps the identity above (about 8.2 here), and
    # the extrapolative probes below use a fixed moderate theta for the
    # no-clamping property
    moderate = OrdinaryKriging(x_pts, np.full(3, 5.0)).weights
    negatives = 0
    for probe in rng.uniform(1.0, 1.3, size=(20, 3)):
        w = moderate(probe)
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        if w.min() < 0.0:
            negatives += 1
    assert negatives >= 1
    _pass(5, f"unit vectors at the 30 designs, |sum-1| <= {worst_sum:.1e} over "
             f"1000 queries, negatives in {negatives}/20 extrapolative queries")


def test_criterion_06_gaussian_kernel_limit():
    corners = np.array([[float(b) for b in f"{i:03b}"] for i in range(8)])
    weights = OrdinaryKriging(corners, np.full(3, 50.0)).weights
    worst = 0.0
    checked = 0
    for j in range(8):
        inward = np.where(corners[j] > 0.5, -0.02, 0.02)
        probe = corners[j] + inward
        w = weights(probe)
        kernel = np.exp(-50.0 * np.sum((corners - probe) ** 2, axis=1))
        comparable = kernel > 1e-6
        assert comparable.any()
        rel = np.abs(w[comparable] - kernel[comparable]) / kernel[comparable]
        worst = max(worst, float(rel.max()))
        checked += int(comparable.sum())
        assert rel.max() < 0.01
    _pass(6, f"{checked} comparable weights match the Gaussian kernel, "
             f"worst relative gap {worst:.2%}")


def test_criterion_07_end_to_end_gate(desk_pipeline):
    report = desk_pipeline["report"]
    errors = [entry["rel_l2_error"] for entry in report["cases"].values()]
    assert len(errors) == 8
    within = sum(1 for e in errors if e <= 0.05)
    assert within >= 7
    assert desk_pipeline["elapsed"] < 600.0
    _pass(7, f"{within}/8 held-out points within 5% (max "
             f"{max(errors):.2%}); pipeline took {desk_pipeline['elapsed']:.0f}s")


def test_criterion_07_heldout_max_within_one_percent(desk_pipeline):
    # beside the 5% gate: with the blend local in design space every
    # held-out design of the desk pipeline is within 1% (0.43% measured)
    errors = [entry["rel_l2_error"] for entry in desk_pipeline["report"]["cases"].values()]
    assert max(errors) <= 0.01
    _pass(7, f"held-out max {max(errors):.2%}, mean {np.mean(errors):.2%}, within 1%")


def test_criterion_07_heldout_max_within_five_hundredths_percent(desk_pipeline):
    # beside the 1% gate: with the mean field kriged under its own
    # length-scales every held-out design of the desk pipeline is within
    # 0.05% (0.0136% measured); blending the mean with the mode weights
    # leaves the worst at 0.43%
    errors = [entry["rel_l2_error"] for entry in desk_pipeline["report"]["cases"].values()]
    assert max(errors) <= 5e-4
    _pass(7, f"held-out max {max(errors):.4%}, mean {np.mean(errors):.4%}, within 0.05%")


def test_criterion_07_gate_on_another_desk_design():
    # the 5% gate on the benchmark's desk seed 25: train on its sliced design
    # and hold out the first 8 designs of its seed-26 held-out set, shrunk by
    # 0.75 about the centre; near-uniform weights (theta_w = e^6) leave 2 of
    # them above 5% here
    ranges = kspod.SWIRL_DESIGN_RANGES
    recipe = kspod.default_recipe(ranges)
    grid, times = kspod.make_grid(50, 50), kspod.make_times(100)
    train_pts = kspod.scale_design(kspod.generate_slhd(5, 6, 3, seed=25), ranges)
    raw = kspod.generate_slhd(4, 8, 3, seed=26).points[:8]
    test_pts = ranges.scale(0.5 + 0.75 * (raw - 0.5))
    model = kspod.train([kspod.synth_flowfield(x, grid, times, recipe) for x in train_pts],
                        kspod.TrainOptions(ranges=ranges))
    errors = [kspod.time_averaged_l2_error(kspod.synth_flowfield(x, grid, times, recipe),
                                           kspod.predict_snapshots(model, x))
              for x in test_pts]
    within = sum(e <= 0.05 for e in errors)
    assert within == 8
    _pass(7, f"desk seed 25: {within}/8 held-out within 5% (max {max(errors):.2%})")


def test_criterion_08_emulator_interpolation(desk_pipeline):
    model = desk_pipeline["model"]
    train_dir = desk_pipeline["workdir"] / "data" / "train"
    worst = 0.0
    for i, path in enumerate(sorted(train_dir.glob("*.kspd"))):
        case = read_dataset(path)
        assert np.allclose(case.design, model.design[i], atol=0.0)
        basis = truncate(decompose(case), num_modes=model.rank)
        target = reconstruct(basis)
        pred = kspod.predict_field(model, case.design)
        rel = np.linalg.norm(pred - target) / np.linalg.norm(target)
        worst = max(worst, rel)
        assert rel < 1e-5
    _pass(8, f"30 training designs reproduce their truncated reconstructions "
             f"(worst {worst:.1e})")


INLET_VELOCITY_CLUSTERS = [
    (40.43, "D"), (12.35, "B"), (11.79, "B"), (6.42, "A"), (8.58, "A"),
    (5.71, "A"), (19.53, "C"), (19.35, "C"), (10.43, "B"), (6.89, "A"),
    (7.19, "A"), (8.63, "A"), (21.87, "C"), (11.25, "B"), (12.06, "B"),
    (7.63, "A"), (6.60, "A"), (8.15, "A"), (35.58, "D"), (12.19, "B"),
    (10.89, "B"), (8.35, "A"), (6.24, "A"), (7.17, "A"), (18.27, "C"),
    (19.51, "C"), (13.84, "B"), (8.18, "A"), (9.36, "A"), (5.99, "A"),
]


def test_criterion_09_qoi_examples():
    # relative error
    value = relative_error(52.85, 52.92)
    assert value == pytest.approx(abs(52.85 - 52.92) / 52.85 * 100.0, rel=1e-14)
    assert value == pytest.approx(0.1324, abs=1e-4)
    assert relative_error(3.3, 3.3) == 0.0
    with pytest.raises(UndefinedBaselineError):
        relative_error(0.0, 1.0)

    # kernel density estimate
    assert kde([0.0], bandwidth=1.0)(0.0) == pytest.approx(
        1.0 / np.sqrt(2.0 * np.pi), rel=1e-12)
    sym = kde([-1.5, 1.5], bandwidth=0.4)
    xs = np.linspace(0.0, 4.0, 17)
    assert np.allclose(sym(xs), sym(-xs), atol=1e-12)
    rng = np.random.default_rng(1009)
    dens = kde(rng.normal(size=30))
    lo, hi = dens.support(6.0)
    grid_1d = np.linspace(lo, hi, 4001)
    assert trapezoid(dens(grid_1d), grid_1d) == pytest.approx(1.0, abs=1e-3)

    # film thickness on the step field (wall at r = 4, interface at r = 3)
    xs_ax = np.linspace(0.0, 10.0, 6)
    rs = np.array([0.0, 1.0, 2.0, 3.0, 3.5, 4.0])
    grid = np.column_stack([np.repeat(xs_ax, rs.size), np.tile(rs, xs_ax.size)])
    step = np.where(grid[:, 1] >= 3.0, 1000.0, 100.0)
    _, thickness = film_thickness_profile(step, grid, 550.0)
    assert np.allclose(thickness, 1.0, atol=1e-12)
    _, none_above = film_thickness_profile(np.full(grid.shape[0], 1.0), grid, 550.0)
    assert np.all(none_above == 0.0)
    _, all_above = film_thickness_profile(np.full(grid.shape[0], 1e3), grid, 550.0)
    assert np.allclose(all_above, rs[-1] - rs[0], atol=1e-12)

    # spreading angle: mid radii 1 and 2 over dx 1 -> 45 degrees
    xs2 = np.array([0.0, 1.0])
    rs2 = np.array([0.0, 1.0, 2.0])
    grid2 = np.column_stack([np.repeat(xs2, 3), np.tile(rs2, 2)])
    vals2 = np.array([10.0, 10.0, 10.0, 0.0, 0.0, 10.0])
    assert spreading_angle(vals2, grid2, (0.0, 1.0), 5.0) == pytest.approx(
        45.0, abs=1e-12)
    assert spreading_angle(step, grid, (xs_ax[0], xs_ax[-1]), 550.0) == \
        pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        spreading_angle(step, grid, (xs_ax[2], xs_ax[2]), 550.0)

    # cluster labels for all 30 design-matrix rows
    for u_in, label in INLET_VELOCITY_CLUSTERS:
        assert kspod.assign_cluster(u_in).value == label
    _pass(9, "metric examples reproduced exactly; all 30 cluster labels match")


def test_criterion_10_spectral_checks(desk_pipeline):
    m, dt = 1000, 1e-3
    t = np.arange(m) * dt
    assert dominant_frequency(np.cos(2.0 * np.pi * 50.0 * t), dt) == 50.0

    model = desk_pipeline["model"]
    test_dir = desk_pipeline["workdir"] / "data" / "test"
    recipe = kspod.default_recipe(model.ranges)
    bin_width = 1.0 / (model.num_snapshots * float(np.diff(model.times).mean()))
    worst = 0.0
    for path in sorted(test_dir.glob("*.kspd")):
        case = read_dataset(path)
        series = kspod.predict_coefficients(model, case.design)[0]
        f_hat = dominant_frequency(series, float(np.diff(model.times).mean()))
        f_oracle = float(recipe.waves[0].frequency(case.design))
        worst = max(worst, abs(f_hat - f_oracle))
        assert abs(f_hat - f_oracle) <= bin_width
    _pass(10, f"bin-aligned frequency exact; emulated mode-1 series within "
              f"one DFT bin of the oracle frequency (worst {worst:.1f} Hz, "
              f"bin {bin_width:.0f} Hz)")


def test_criterion_11_determinism_and_format(tmp_path):
    config = {
        "seed": 7,
        "design": {"dims": 2, "slices": 2, "per_slice": 3,
                   "ranges": [[0.0, 1.0], [10.0, 20.0]]},
        "synth": {"nx": 12, "nr": 10, "x_range": [0.0, 5.0],
                  "r_range": [0.0, 2.0], "snapshots": 20, "dt": 1e-4},
        "test": {"count": 2, "shrink": 0.75},
        "metrics": {"kde_bandwidth": 0.05},
    }
    digests = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        workdir.mkdir()
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg)]) == 0
        blobs = []
        for rel in sorted(p.relative_to(workdir)
                          for p in workdir.rglob("*") if p.is_file()):
            if rel.name == "cfg.json":
                continue
            blobs.append((str(rel), (workdir / rel).read_bytes()))
        digests.append(blobs)
    assert [name for name, _ in digests[0]] == [name for name, _ in digests[1]]
    for (name, blob_a), (_, blob_b) in zip(*digests):
        assert blob_a == blob_b, f"{name} differs between runs"

    tiny = SnapshotSet(
        "tiny", np.arange(1.0, 4.0), np.arange(4.0).reshape(2, 2),
        [0.0], np.array([[1.0], [2.0]]),
    )
    tiny_path = tmp_path / "tiny.kspd"
    write_dataset(tiny, tiny_path)
    assert tiny_path.stat().st_size == 110
    _pass(11, f"two seeded pipeline runs byte-identical "
              f"({len(digests[0])} files); tiny container is 110 bytes")


def test_criterion_12_prediction_latency(desk_pipeline):
    model = desk_pipeline["model"]
    probe = model.ranges.scale(np.full(3, 0.4))
    kspod.predict_field(model, probe, time_indices=[0])  # warm-up
    samples = []
    for q in range(11):
        start = time.perf_counter()
        kspod.predict_field(model, probe, time_indices=[q])
        samples.append(time.perf_counter() - start)
    median = sorted(samples)[len(samples) // 2]
    assert median < 0.1
    _pass(12, f"one-snapshot prediction median {median * 1e3:.1f} ms on the "
              f"{model.num_points}-point desk grid")
