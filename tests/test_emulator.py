import dataclasses
import logging
import pickle
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kspod
import kspod.emulator
import kspod.kriging
from kspod.emulator import (
    MEAN_WEIGHT_NUGGET,
    TrainOptions,
    _assemble,
    load_model,
    predict_coefficients,
    predict_field,
    predict_modes,
    predict_snapshots,
    save_model,
    train,
    weight_vector,
)
from kspod.errors import IncompatibleCasesError, NonFiniteDataError
from kspod.kriging import FitOptions, OrdinaryKriging, fit_theta
from kspod.pod import PODBasis, decompose, reconstruct, truncate
from kspod.snapshots import SnapshotSet, read_dataset, write_dataset
from test_kriging import dense_predict

DATA = Path(__file__).parent / "data"


def analytic_case(amp1, amp2, design, case_id, m=16):
    """Two orthonormal spatial patterns with cos/sin time behavior over a
    full period: exact energy fractions amp1^2 : amp2^2."""
    t = np.arange(m) / m
    grid = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    fld = (
        amp1 * np.outer([1.0, 0.0, 0.0], np.cos(2.0 * np.pi * t))
        + amp2 * np.outer([0.0, 1.0, 0.0], np.sin(2.0 * np.pi * t))
    )
    return SnapshotSet(case_id, design, grid, np.arange(m) * 1e-3, fld)


def pooled_reference(model):
    """Per-case residuals |Phi_i - U| / sqrt(K) of a model's aligned modes and
    the gap mu_K / mu_(K+1), from an eigendecomposition of the (J, J) pooled
    covariance sum_i Phi_i a_i' a_i Phi_i' (unit quadrature weights)."""
    k = model.rank
    modes = model.library[:, :k]
    coeffs = model.coefficients.transpose(2, 1, 0)  # (n, m, K)
    cov = sum(rows.T @ (beta.T @ beta) @ rows for rows, beta in zip(modes, coeffs))
    mu, vecs = np.linalg.eigh(cov)
    mu, ref = mu[::-1], vecs[:, ::-1][:, :k]
    ref = ref * np.sign(ref[np.abs(ref).argmax(axis=0), np.arange(k)])
    resid = np.linalg.norm(modes - ref.T, axis=(1, 2)) / np.sqrt(k)
    return resid, mu[k - 1] / mu[k]


@pytest.fixture(scope="module")
def uncentered_model(desk_setup, small_cases):
    return train(small_cases, TrainOptions(ranges=desk_setup["ranges"], centering=False))


BENCHMARK_SHAPES = {  # slices, per-slice, grid side, snapshots
    "desk": (5, 6, 50, 100),
    "dense-design": (8, 10, 24, 30),
}


@pytest.fixture(scope="module", params=sorted(BENCHMARK_SHAPES))
def benchmark_model(request):
    """The benchmark's seed-1 model of one workload and its 16 query designs."""
    slices, per_slice, side, snapshots = BENCHMARK_SHAPES[request.param]
    ranges = kspod.SWIRL_DESIGN_RANGES
    grid, times = kspod.make_grid(side, side), kspod.make_times(snapshots)
    recipe = kspod.default_recipe(ranges)
    design = kspod.scale_design(kspod.generate_slhd(slices, per_slice, 3, seed=1), ranges)
    model = train([kspod.synth_flowfield(x, grid, times, recipe) for x in design],
                  TrainOptions(ranges=ranges))
    queries = ranges.scale(np.random.default_rng([1, 2]).uniform(0.125, 0.875, size=(16, 3)))
    return model, queries


def composed_field(model, x, indices=None):
    """predict_field composed from separate parts: every library row blended
    with weight_vector's raw weights, except that the mean row of a
    model with mean_theta takes ordinary-kriging weights under it at
    MEAN_WEIGHT_NUGGET, factorized here; then the coefficients from
    predict_coefficients, with a row of ones for the mean."""
    w = weight_vector(model, x).raw
    rows = np.einsum("n,nkj->kj", w, model.library)
    beta = predict_coefficients(model, x, indices)
    if model.centering:
        if model.mean_theta is not None:
            unit = model.ranges.normalize(model.design)
            mean_weights = OrdinaryKriging(unit, model.mean_theta, MEAN_WEIGHT_NUGGET).weights(
                model.ranges.normalize(x))
            rows[model.rank] = mean_weights @ model.library[:, model.rank]
        beta = np.vstack((beta, np.ones(beta.shape[1])))
    return rows.T @ beta


class TestTrain:
    def test_min_rank_rule(self):
        # energy splits {0.8, 0.2} and {0.95, 0.05}; threshold 0.9 gives
        # per-case ranks 2 and 1, so the common rank is 1
        cases = [
            analytic_case(2.0, 1.0, [0.2], "a"),
            analytic_case(np.sqrt(19.0), 1.0, [0.8], "b"),
        ]
        model = train(cases, TrainOptions(energy_threshold=0.9, centering=False))
        assert model.rank == 1

    def test_duplicate_data_distinct_designs(self):
        cases = [
            analytic_case(2.0, 1.0, [0.1], "a"),
            analytic_case(2.0, 1.0, [0.9], "b"),
        ]
        model = train(cases, TrainOptions(energy_threshold=1.0, centering=False))
        assert np.array_equal(model.library[0], model.library[1])

    def test_incompatible_grids(self):
        a = analytic_case(2.0, 1.0, [0.1], "a")
        b = analytic_case(2.0, 1.0, [0.9], "b")
        shifted = SnapshotSet(b.case_id, b.design, b.grid + 1.0, b.times, b.field)
        with pytest.raises(IncompatibleCasesError):
            train([a, shifted])

    def test_duplicate_designs_rejected(self):
        cases = [
            analytic_case(2.0, 1.0, [0.5], "a"),
            analytic_case(3.0, 1.0, [0.5], "b"),
        ]
        with pytest.raises(ValueError):
            train(cases)

    def test_explicit_rank_too_large(self):
        cases = [
            analytic_case(2.0, 1.0, [0.1], "a"),
            analytic_case(2.0, 1.0, [0.9], "b"),
        ]
        with pytest.raises(ValueError):
            train(cases, TrainOptions(num_modes=5, centering=False))

    def test_single_case_warns_and_reproduces(self):
        case = analytic_case(2.0, 1.0, [0.4], "solo")
        with pytest.warns(UserWarning):
            model = train([case], TrainOptions(energy_threshold=1.0,
                                               centering=False))
        truncated = reconstruct(truncate(decompose(case, centering=False),
                                         num_modes=model.rank))
        for probe in ([0.1], [0.4], [0.9]):
            pred = predict_field(model, probe)
            assert np.allclose(pred, truncated, atol=1e-9)

    def test_one_coefficient_fit_per_mode(self, small_cases, desk_setup, monkeypatch):
        # each mode's means, variances and weights come from one fit under
        # its one factor, made once, when the model is built
        calls = []
        real = OrdinaryKriging.fit
        monkeypatch.setattr(OrdinaryKriging, "fit",
                            lambda gp, y, *rest: calls.append(y.shape) or real(gp, y, *rest))
        model = train(small_cases, TrainOptions(ranges=desk_setup["ranges"]))
        k, m, n = model.coefficients.shape
        assert calls == [(m, n)] * k

    def test_logs_each_stage(self, desk_setup, small_cases, small_model,
                             caplog, capsys):
        with caplog.at_level(logging.INFO, logger="kspod"):
            model = train(small_cases, TrainOptions(ranges=desk_setup["ranges"]))
        records = [r for r in caplog.records
                   if r.name == "kspod" and r.levelno == logging.INFO]
        stages = [r.getMessage().split()[1] for r in records]
        # the fixed fit is the model's construction, after the weight stage
        assert stages == ["decomposed", "common"] + ["mode"] * model.rank \
            + ["weight", "fixed", "mean"]
        decomposed, ranked, *modes, weight, fixed, mean = records
        assert decomposed.args[0] == len(small_cases)
        assert ranked.args[0] == model.rank == small_model.rank
        threshold = model.options_record["energy_threshold"]
        assert threshold - 1e-12 <= ranked.args[1] <= 1.0
        # the alignment: largest and median Procrustes residual, and the
        # pooled eigenvalue gap, recomputed from the J x J pooled covariance
        # of the aligned model; the recipe's cases share their K modes
        resid, gap = pooled_reference(model)
        assert ranked.args[2:4] == pytest.approx((resid.max(), np.median(resid)), abs=1e-12)
        assert ranked.args[2] <= 1e-12 and ranked.args[4] > 1e6
        with caplog.at_level(logging.INFO, logger="kspod"):
            caplog.clear()
            two = train(small_cases, TrainOptions(ranges=desk_setup["ranges"], num_modes=2))
        two_ranked = [r for r in caplog.records if r.getMessage().split()[1] == "common"][0]
        resid, gap = pooled_reference(two)
        assert two_ranked.args[2:5] == pytest.approx(
            (resid.max(), np.median(resid), gap), rel=1e-8)
        assert 1e-6 < two_ranked.args[3] <= two_ranked.args[2] and 1.0 < two_ranked.args[4] < 1e6
        for k, rec in enumerate(modes):
            assert rec.args[0] == k
            assert np.array_equal(rec.args[1], model.coeff_theta[k])
        assert fixed.args[0] == model.coeff_mu.size
        assert weight.args[0] == model.options_record["weight_theta"]
        # the mean stage: its length-scales, the mean weights' identity
        # residual at the training designs, the largest relative miss of the
        # mean rows they blend there, and the distinct length-scales its one
        # search scored
        theta_mean, resid, miss, scored = mean.args[:4]
        assert np.array_equal(theta_mean, model.mean_theta)
        unit = model.ranges.normalize(model.design)
        weights = model._mean_kriging.weights(unit)
        assert resid == np.abs(weights - np.eye(model.n_cases)).max()
        # the weights need not be the identity, but the mean fields they
        # blend at the training designs are the training means
        means = model.library[:, -1]
        assert np.abs(weights @ means - means).max() <= 1e-6 * np.abs(means).max()
        misses = [np.linalg.norm(w @ means - mean) / np.linalg.norm(mean)
                  for w, mean in zip(weights, means)]
        assert miss == pytest.approx(max(misses), rel=1e-12)
        assert miss < resid
        assert scored >= 1
        for rec in records:
            assert 0.0 <= rec.args[-1] < 6e4, rec.getMessage()
        # diagnostics go to the logger only
        assert capsys.readouterr().out == ""
        # an uncentered model has no mean field to krige
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="kspod"):
            train(small_cases, TrainOptions(ranges=desk_setup["ranges"], centering=False))
        assert "mean" not in [r.getMessage().split()[1] for r in caplog.records]

    def test_zero_variance_cases_rejected(self):
        grid = np.zeros((3, 2))
        times = np.arange(4) * 1e-3
        cases = [
            SnapshotSet(f"c{i}", [0.2 + 0.5 * i], grid, times,
                        np.full((3, 4), 7.0 + i))
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            train(cases, TrainOptions(centering=True))


class TestWeights:
    def test_normalized_and_raw_sums(self, small_model):
        # ordinary-kriging weights sum to one by construction, so the raw
        # weights are used as they come; inside the design box and well
        # outside it, on a trained model and on both golden KSEM1 files,
        # |sum - 1| measured at most 5.6e-16, so 1e-13 leaves a 180x margin
        models = [small_model, *(load_model(DATA / f"ksem1_{name}.ksem")
                                 for name in ("centered", "uncentered"))]
        rng = np.random.default_rng(0)
        for model in models:
            for lo, hi in ((0.0, 1.0), (-0.5, 1.5), (-3.0, 4.0)):
                for _ in range(20):
                    probe = model.ranges.scale(rng.uniform(lo, hi, size=model.dims))
                    w = weight_vector(model, probe)
                    assert w.normalized is w.raw
                    assert abs(w.raw.sum() - 1.0) <= 1e-13

    def test_unit_vector_at_training_designs(self, small_model):
        for i in range(small_model.n_cases):
            w = weight_vector(small_model, small_model.design[i])
            expected = np.zeros(small_model.n_cases)
            expected[i] = 1.0
            assert np.abs(w.raw - expected).max() < 1e-6

    def test_non_finite_design_rejected(self, small_model):
        probe = small_model.design[0].copy()
        probe[1] = np.nan
        with pytest.raises(ValueError):
            weight_vector(small_model, probe)
        with pytest.raises(ValueError):
            predict_field(small_model, probe)


class TestPrediction:
    def test_interpolates_truncated_reconstruction(self, small_model, small_cases):
        for i in (0, 4, 9):
            basis = decompose(small_cases[i])
            truncated = reconstruct(truncate(basis, num_modes=small_model.rank))
            pred = predict_field(small_model, small_cases[i].design)
            rel = np.linalg.norm(pred - truncated) / np.linalg.norm(truncated)
            assert rel < 1e-5

    def test_modes_at_training_design(self, small_model):
        for i in (1, 5):
            phi = predict_modes(small_model, small_model.design[i])
            lib = small_model.library[i, :small_model.rank].T
            rel = np.linalg.norm(phi - lib) / np.linalg.norm(lib)
            assert rel < 1e-6

    def test_modes_mean_of_symmetric_pair(self):
        cases = [
            analytic_case(2.0, 1.0, [0.25], "a"),
            analytic_case(2.5, 1.2, [0.75], "b"),
        ]
        model = train(cases, TrainOptions(centering=False, num_modes=1))
        phi = predict_modes(model, [0.5])
        expected = 0.5 * (model.library[0] + model.library[1]).T
        assert np.allclose(phi, expected, atol=1e-10)

    def test_identical_modes_returned_exactly(self):
        cases = [
            analytic_case(2.0, 1.0, [0.1], "a"),
            analytic_case(2.0, 1.0, [0.5], "b"),
            analytic_case(2.0, 1.0, [0.9], "c"),
        ]
        model = train(cases, TrainOptions(centering=False, num_modes=2))
        lib = model.library[0].T
        for probe in ([0.3], [0.7], [1.2]):
            assert np.allclose(predict_modes(model, probe), lib, atol=1e-9)

    def test_coefficients_at_training_design(self, small_model):
        i = 2
        beta = predict_coefficients(small_model, small_model.design[i])
        expected = small_model.coefficients[..., i]
        scale = np.abs(expected).max()
        assert np.abs(beta - expected).max() < 1e-5 * scale

    def test_coefficients_match_dense_solve(self, small_model, desk_setup):
        model = small_model
        unit = model.ranges.normalize(model.design)
        coeffs = model.coefficients.T  # (n, m, K)
        nugget = model.options_record["nugget"]
        x_new = desk_setup["ranges"].scale(np.array([0.41, 0.63, 0.28]))
        xu = model.ranges.normalize(x_new)
        oracle = np.array([
            [dense_predict(unit, coeffs[:, q, k], model.coeff_theta[k],
                           nugget, xu) for q in range(model.num_snapshots)]
            for k in range(model.rank)
        ])
        scale = np.abs(oracle).max()
        full = predict_coefficients(model, x_new)
        assert np.abs(full - oracle).max() < 1e-8 * scale
        one = predict_coefficients(model, x_new, time_indices=[7])
        assert np.abs(one - oracle[:, [7]]).max() < 1e-8 * scale
        assert predict_coefficients(model, x_new, time_indices=[]).shape \
            == (model.rank, 0)

    @pytest.mark.parametrize("slices, per_slice, nx, snapshots", [
        (5, 6, 50, 100),  # the benchmark's desk workload
        (8, 10, 24, 30),  # its dense-design workload
    ])
    def test_probe_coefficients_equal_full_history(self, slices, per_slice, nx,
                                                   snapshots):
        # the benchmark's seed-1 models and query designs: one time-step's
        # coefficients equal its column of the full history bit for bit
        ranges = kspod.SWIRL_DESIGN_RANGES
        grid, times = kspod.make_grid(nx, nx), kspod.make_times(snapshots)
        recipe = kspod.default_recipe(ranges)
        design = kspod.scale_design(kspod.generate_slhd(slices, per_slice, 3, seed=1), ranges)
        model = train([kspod.synth_flowfield(x, grid, times, recipe) for x in design],
                      TrainOptions(ranges=ranges))
        queries = ranges.scale(np.random.default_rng([1, 2]).uniform(
            0.125, 0.875, size=(16, 3)))
        for x in queries:
            full = predict_coefficients(model, x)
            for q in range(snapshots):
                assert np.array_equal(predict_coefficients(model, x, [q])[:, 0],
                                      full[:, q])

    def test_fused_field_equals_composed_parts(self, benchmark_model):
        # the one-pass predict_field against its parts computed apart, full
        # histories and single steps, at the benchmark's 16 query designs
        model, queries = benchmark_model
        assert model.mean_theta is not None
        for x in queries:
            for indices in (None, [0], [model.num_snapshots // 2], [model.num_snapshots - 1]):
                expected = composed_field(model, x, indices)
                fld = predict_field(model, x, indices)
                assert np.abs(fld - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_square_differences_built_once_per_model(self, small_model, monkeypatch):
        # the coefficient fits and both weight factors share one (n, n, d)
        # array of squared design differences
        calls, original = [], kspod.kriging._sq_diffs

        def counting(x_pts):
            calls.append(x_pts.shape)
            return original(x_pts)

        monkeypatch.setattr(kspod.kriging, "_sq_diffs", counting)
        monkeypatch.setattr(kspod.emulator, "_sq_diffs", counting)
        rebuilt = dataclasses.replace(small_model)
        assert calls == [(small_model.n_cases, small_model.dims)]
        assert rebuilt._mean_kriging is not None
        assert np.array_equal(rebuilt.coeff_alpha, small_model.coeff_alpha)

    def test_constant_coefficients_predicted_exactly(self):
        # identical fluctuation fields shifted by per-case constants: after
        # centering every case carries the same coefficients
        base = analytic_case(2.0, 1.0, [0.0], "base")
        cases = [
            SnapshotSet(f"c{i}", [0.2 + 0.3 * i], base.grid, base.times,
                        base.field + 5.0 * i)
            for i in range(3)
        ]
        model = train(cases, TrainOptions(centering=True, num_modes=2))
        expected = model.coefficients[..., 0]
        for probe in ([0.35], [0.61]):
            beta = predict_coefficients(model, probe)
            assert np.abs(beta - expected).max() < 1e-8

    def test_held_out_modes_and_coefficients(self, small_model, desk_setup):
        x_new = desk_setup["ranges"].scale(np.array([0.37, 0.55, 0.44]))
        oracle = kspod.synth_flowfield(
            x_new, desk_setup["grid"], desk_setup["times"], desk_setup["recipe"]
        )
        obasis = truncate(decompose(oracle), num_modes=small_model.rank)
        phi = predict_modes(small_model, x_new)
        beta = predict_coefficients(small_model, x_new)
        for k in range(small_model.rank):
            o_mode = obasis.modes[:, k]
            cos = phi[:, k] @ o_mode / (
                np.linalg.norm(phi[:, k]) * np.linalg.norm(o_mode)
            )
            assert abs(cos) > 0.95
            sign = np.sign(cos)
            rel = np.linalg.norm(beta[k] - sign * obasis.coeffs[:, k]) \
                / np.linalg.norm(obasis.coeffs[:, k])
            if k == 0:
                assert rel < 0.10

    def test_field_error_at_held_out_point(self, small_model, desk_setup):
        x_new = desk_setup["ranges"].scale(np.array([0.61, 0.33, 0.72]))
        oracle = kspod.synth_flowfield(
            x_new, desk_setup["grid"], desk_setup["times"], desk_setup["recipe"]
        )
        emu = predict_snapshots(small_model, x_new)
        assert kspod.time_averaged_l2_error(oracle, emu) < 0.05

    def test_time_index_subset(self, small_model):
        x = small_model.design[3]
        full = predict_field(small_model, x)
        sub = predict_field(small_model, x, time_indices=[0, 5, 9])
        assert np.array_equal(sub, full[:, [0, 5, 9]])
        with pytest.raises(IndexError):
            predict_field(small_model, x, time_indices=[99])

    @pytest.mark.parametrize("indices", [
        [True, False, True],  # a boolean mask, not steps [1, 0, 1]
        [2.7],                # not truncated to step 2
        [[0, 1], [2, 3]],     # not 1-D
    ])
    def test_malformed_time_indices_rejected(self, small_model, indices):
        x = small_model.design[3]
        for predict in (predict_field, predict_coefficients, predict_snapshots):
            with pytest.raises(IndexError):
                predict(small_model, x, time_indices=indices)

    @pytest.mark.parametrize("fixture", ["small_model", "uncentered_model"])
    @pytest.mark.parametrize("indices", [None, [5], []])
    def test_field_composes_modes_coefficients_and_mean(
            self, request, desk_setup, fixture, indices):
        model = request.getfixturevalue(fixture)
        x = desk_setup["ranges"].scale(np.array([0.41, 0.63, 0.28]))
        modes = predict_modes(model, x)
        assert modes.shape == (model.num_points, model.rank)
        expected = modes @ predict_coefficients(model, x, indices)
        if model.centering:
            # the mean field takes the ordinary-kriging weights under mean_theta
            unit = model.ranges.normalize(model.design)
            mean_weights = OrdinaryKriging(unit, model.mean_theta, MEAN_WEIGHT_NUGGET).weights(
                model.ranges.normalize(x))
            expected += (mean_weights @ model.library[:, -1])[:, None]
        fld = predict_field(model, x, indices)
        count = model.num_snapshots if indices is None else len(indices)
        assert fld.shape == (model.num_points, count)
        if count:
            scale = np.abs(expected).max()
            assert np.abs(fld - expected).max() <= 1e-13 * scale

    @pytest.mark.parametrize("fixture", ["small_model", "uncentered_model"])
    @pytest.mark.parametrize("indices", [None, [0], [7], [3, 9, 2]])
    def test_field_column_major_and_written_without_copy(
            self, request, desk_setup, tmp_path, fixture, indices):
        # the field comes back column-major, as KSPD1 stores it, and equals
        # the row-major (J, K [+1]) times (K [+1], m) recombination within
        # the two products' rounding bound; writing a full-history
        # prediction makes no copy of its field and reads back bit for bit
        model = request.getfixturevalue(fixture)
        x = desk_setup["ranges"].scale(np.array([0.41, 0.63, 0.28]))
        fld = predict_field(model, x, indices)
        assert fld.flags.f_contiguous
        beta = predict_coefficients(model, x, indices)
        if model.centering:
            beta = np.vstack((beta, np.ones(beta.shape[1])))
        # one weight vector per library row: the mode weights, and for the
        # mean row the model's own ordinary-kriging weights under mean_theta
        w = np.repeat(weight_vector(model, x).raw[:, None], beta.shape[0], axis=1)
        if model.mean_theta is not None:
            w[:, -1] = model._mean_kriging.weights(model.ranges.normalize(x))
        blend = np.einsum("nk,nkj->kj", w, model.library)
        bound = np.einsum("nk,nkj->jk", np.abs(w), np.abs(model.library)) @ np.abs(beta)
        ulps = 4 * (w.shape[0] + beta.shape[0]) * np.finfo(float).eps
        assert np.all(np.abs(fld - blend.T @ beta) <= ulps * bound)
        snapshots = predict_snapshots(model, x)
        path = tmp_path / "predicted.kspd"
        tracemalloc.start()
        try:
            write_dataset(snapshots, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < snapshots.field.nbytes // 2
        assert np.array_equal(read_dataset(path).field, snapshots.field)

    def test_sign_flip_robustness(self, small_cases, desk_setup):
        options = TrainOptions(ranges=desk_setup["ranges"], num_modes=2)
        design = np.vstack([c.design for c in small_cases])
        bases = [decompose(c) for c in small_cases]
        flipped = list(bases)
        flip = bases[2]
        flipped[2] = PODBasis(-flip.modes, -flip.coeffs, flip.eigenvalues,
                              flip.quadrature_weights, flip.mean_field)
        model_a = _assemble(design, bases, small_cases[0], options)
        model_b = _assemble(design, flipped, small_cases[0], options)
        probe = desk_setup["ranges"].scale(np.array([0.52, 0.47, 0.58]))
        assert np.array_equal(predict_field(model_a, probe),
                              predict_field(model_b, probe))

    def test_rotated_case_predicts_alike(self, small_cases, desk_setup):
        # a case's K modes rotated by any orthogonal matrix, with its
        # coefficients, describe the same rank-K reconstruction: the aligned
        # model predicts as before
        options = TrainOptions(ranges=desk_setup["ranges"], num_modes=2)
        design = np.vstack([c.design for c in small_cases])
        bases = [truncate(decompose(c), num_modes=2) for c in small_cases]
        q = np.linalg.qr(np.random.default_rng(5).normal(size=(2, 2)))[0]
        rotated = list(bases)
        b = bases[4]
        rotated[4] = PODBasis(b.modes @ q, b.coeffs @ q, b.eigenvalues,
                              b.quadrature_weights, b.mean_field)
        model_a = _assemble(design, bases, small_cases[0], options)
        model_b = _assemble(design, rotated, small_cases[0], options)
        probe = desk_setup["ranges"].scale(np.array([0.52, 0.47, 0.58]))
        fld_a, fld_b = predict_field(model_a, probe), predict_field(model_b, probe)
        assert np.abs(fld_b - fld_a).max() <= 1e-10 * np.abs(fld_a).max()

    def test_default_recipe_modes_agree(self, small_model):
        # every case spans the recipe's K wave patterns, so after alignment
        # the cases hold one set of orthonormal modes
        modes = small_model.library[:, :small_model.rank]
        assert np.abs(modes - modes[0]).max() <= 1e-8
        for rows in modes:
            assert np.abs(rows @ rows.T - np.eye(small_model.rank)).max() <= 1e-12

    def test_truncation_monotone_at_training_design(self, small_cases, desk_setup):
        errors = []
        case = small_cases[1]
        for k in (1, 2, 3):
            options = TrainOptions(ranges=desk_setup["ranges"], num_modes=k)
            model = train(small_cases, options)
            pred = predict_field(model, case.design)
            errors.append(np.linalg.norm(pred - case.field)
                          / np.linalg.norm(case.field))
        assert errors[0] >= errors[1] - 1e-9
        assert errors[1] >= errors[2] - 1e-9

    def test_predicted_snapshot_metadata(self, small_model):
        x = small_model.design[0]
        out = predict_snapshots(small_model, x, time_indices=[0, 1])
        assert out.case_id.startswith("predicted:")
        assert len(out.case_id) == len("predicted:") + 12
        assert out.field.shape == (small_model.num_points, 2)


class TestOptions:
    def test_shared_theta_mode_interpolates(self, small_cases, desk_setup):
        options = TrainOptions(ranges=desk_setup["ranges"], num_modes=2)
        model = train(small_cases, options)
        # one theta per mode, searched on the (n, m) block of all its
        # time-steps
        unit = model.ranges.normalize(model.design)
        for k, row in enumerate(model.coeff_theta):
            assert np.array_equal(row, fit_theta(unit, model.coefficients[k].T))
        case = small_cases[2]
        basis = decompose(case)
        target = reconstruct(truncate(basis, num_modes=2))
        pred = predict_field(model, case.design)
        assert np.linalg.norm(pred - target) / np.linalg.norm(target) < 1e-5

    def test_bad_options_rejected(self, small_cases, monkeypatch):
        with pytest.raises(ValueError):
            TrainOptions(energy_threshold=1.5)
        with pytest.raises(ValueError):
            TrainOptions(num_modes=0)
        with pytest.raises(ValueError, match="num_modes must be an integer"):
            TrainOptions(num_modes=2.5)
        assert TrainOptions(num_modes=np.int64(2)).num_modes == 2
        assert FitOptions(restarts=np.int32(3)).restarts == 3
        # a boolean or a string is not a number, and the error names the field
        for name in ("energy_threshold", "nugget"):
            for bad in (True, np.True_, "2", None):
                with pytest.raises(ValueError, match=f"{name} must be a number"):
                    TrainOptions(**{name: bad})
        assert TrainOptions(energy_threshold=np.float32(0.5), nugget=0).energy_threshold == 0.5
        # centering is a boolean; a string or a count once failed in train
        # after every case was decomposed
        for bad in ("false", None, 1):
            with pytest.raises(ValueError, match=f"centering must be a boolean, got {bad!r}"):
                TrainOptions(centering=bad)
        assert not TrainOptions(centering=np.False_).centering
        # ranges is a DesignRanges of the designs' dimension, refused before
        # any case is decomposed
        with pytest.raises(ValueError, match="ranges must be a DesignRanges or None"):
            TrainOptions(ranges=[[0, 1]] * 3)
        monkeypatch.setattr(kspod.emulator, "decompose",
                            lambda *args, **kwargs: pytest.fail("decomposed"))
        with pytest.raises(ValueError, match="ranges has 2 dims, the training designs 3"):
            train(small_cases, TrainOptions(ranges=kspod.DesignRanges([0, 0], [1, 1])))
        for bad in ({"restarts": 0}, {"restarts": 2.5}, {"nugget": -1e-3},
                    {"log_theta_bounds": (3.0, -3.0)}):
            with pytest.raises(ValueError):
                TrainOptions(**bad)
            with pytest.raises(ValueError):
                FitOptions(**bad)
        # the kriging options are checked once, by FitOptions, for both classes
        bounds = "log_theta_bounds must be two numbers"
        for cls in (TrainOptions, FitOptions):
            for bad in (True, np.True_, "1e-8", None):
                with pytest.raises(ValueError, match="nugget must be a number"):
                    cls(nugget=bad)
            for bad in ((False, True), ("a", "b"), (np.True_, 3.0), (-3.0, None),
                        (1.0,), (-1.0, 0.0, 1.0), 5.0, None, "ab"):
                with pytest.raises(ValueError, match=bounds):
                    cls(log_theta_bounds=bad)
            for good in ((np.float32(-2.0), np.int64(2)), [-6, 6], np.array([-1.0, 1.0])):
                assert tuple(cls(log_theta_bounds=good).log_theta_bounds) == tuple(good)


class TestSerialization:
    def test_round_trip_predictions_exact(self, small_model, desk_setup, tmp_path):
        path = tmp_path / "model.ksem"
        save_model(small_model, path)
        loaded = load_model(path)
        probe = desk_setup["ranges"].scale(np.array([0.3, 0.6, 0.9]))
        assert np.array_equal(predict_field(loaded, probe),
                              predict_field(small_model, probe))

    def test_ksem2_round_trip(self, small_model, desk_setup, tmp_path):
        # a centered model is KSEM2: the KSEM1 layout, then mean_theta
        path = tmp_path / "model.ksem"
        save_model(small_model, path)
        data = path.read_bytes()
        assert data[:6] == b"KSEM2\n"
        d = small_model.dims
        assert np.array_equal(np.frombuffer(data, "<f8", d, len(data) - 8 * d),
                              small_model.mean_theta)
        loaded = load_model(path)
        assert np.array_equal(loaded.mean_theta, small_model.mean_theta)
        probe = desk_setup["ranges"].scale(np.array([0.3, 0.6, 0.9]))
        for indices in (None, [4], [0, 7, 2]):
            assert np.array_equal(predict_field(loaded, probe, indices),
                                  predict_field(small_model, probe, indices))
        without = dataclasses.replace(small_model, mean_theta=None)
        save_model(without, tmp_path / "ksem1.ksem")
        assert (tmp_path / "ksem1.ksem").read_bytes() == b"KSEM1" + data[5:-8 * d]

    def test_bad_mean_theta_rejected(self, small_model, uncentered_model, tmp_path):
        path = tmp_path / "model.ksem"
        save_model(small_model, path)
        data = path.read_bytes()
        d = small_model.dims
        for i, value in enumerate((-1.0, 0.0, np.nan, np.inf)):
            patched = bytearray(data)
            patched[len(data) - 8 * d:len(data) - 8 * d + 8] = np.float64(value).tobytes()
            bad = tmp_path / f"bad{i}.ksem"
            bad.write_bytes(bytes(patched))
            with pytest.raises(ValueError) as caught:
                load_model(bad)
            assert str(bad) in str(caught.value) and "mean-field" in str(caught.value)
        # an uncentered model has no mean field, in memory or on file
        with pytest.raises(ValueError):
            dataclasses.replace(uncentered_model, mean_theta=small_model.mean_theta)
        save_model(uncentered_model, path)
        data = path.read_bytes()
        assert data[:6] == b"KSEM1\n"
        bad = tmp_path / "uncentered.ksem"
        bad.write_bytes(b"KSEM2" + data[5:] + small_model.mean_theta.tobytes())
        with pytest.raises(ValueError) as caught:
            load_model(bad)
        assert str(bad) in str(caught.value)

    def test_rewrite_byte_identical(self, small_model, tmp_path):
        p1, p2 = tmp_path / "a.ksem", tmp_path / "b.ksem"
        save_model(small_model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_stored_means_and_variances_are_derived(self, small_model, desk_setup,
                                                    tmp_path):
        # the coefficient means and variances a file stores are checked but
        # not kept: patched to other finite values, the file loads as the
        # trained model and re-saves to its bytes; a non-finite one is refused
        path = tmp_path / "model.ksem"
        save_model(small_model, path)
        data = path.read_bytes()
        size = small_model.coeff_mu.size
        mu_at = len(data) - 8 * (small_model.dims + 2 * size)
        stored = np.frombuffer(data, "<f8", 2 * size, mu_at)
        assert np.array_equal(stored, np.concatenate(
            (small_model.coeff_mu.ravel(), small_model.coeff_sigma2.ravel())))
        patched = tmp_path / "patched.ksem"
        patched.write_bytes(data[:mu_at] + (stored * 3.0 + 1.0).tobytes()
                            + data[mu_at + 16 * size:])
        loaded = load_model(patched)
        rng = np.random.default_rng(4)
        for x in desk_setup["ranges"].scale(rng.uniform(size=(4, small_model.dims))):
            assert np.array_equal(predict_field(loaded, x), predict_field(small_model, x))
        save_model(loaded, tmp_path / "again.ksem")
        assert (tmp_path / "again.ksem").read_bytes() == data
        for offset in (mu_at, mu_at + 8 * size):
            bad = bytearray(data)
            bad[offset:offset + 8] = np.float64(np.nan).tobytes()
            patched.write_bytes(bytes(bad))
            with pytest.raises(NonFiniteDataError):
                load_model(patched)

    def test_replaced_model_predicts_as_its_reload(self, small_model, desk_setup,
                                                   tmp_path):
        # the coefficient weights, the weight parameters and the rank are
        # derived from the stored fields, so a changed field changes them
        # alike in the model and in its saved-and-loaded copy
        changed = [
            dataclasses.replace(small_model, coeff_theta=2.0 * small_model.coeff_theta),
            dataclasses.replace(small_model, options_record={
                **small_model.options_record, "weight_theta": 2.0}),
            dataclasses.replace(small_model, mean_theta=2.0 * small_model.mean_theta),
        ]
        probe = desk_setup["ranges"].scale(np.array([0.3, 0.6, 0.9]))
        base = predict_field(small_model, probe)
        for i, model in enumerate(changed):
            path = tmp_path / f"{i}.ksem"
            save_model(model, path)
            pred = predict_field(model, probe)
            assert not np.array_equal(pred, base)
            assert np.array_equal(pred, predict_field(load_model(path), probe))
        for derived in ("rank", "coeff_mu", "coeff_sigma2", "coeff_alpha"):
            with pytest.raises(TypeError):
                dataclasses.replace(small_model, **{derived: getattr(small_model, derived)})
        # one length-scale vector per mode, for every mode
        theta = small_model.coeff_theta
        for bad in (theta[:-1], np.repeat(theta[:, None], 2, axis=1)):
            with pytest.raises(ValueError):
                dataclasses.replace(small_model, coeff_theta=bad)

    def test_stored_fields_are_read_only(self, small_model):
        # an in-place write would leave the derived weights behind, and a
        # save would then write values the model does not predict with
        with pytest.raises(TypeError):
            small_model.options_record["weight_theta"] = 2.0
        with pytest.raises(ValueError):
            small_model.coeff_theta[...] *= 2
        for name in ("design", "library", "eigenvalues", "coefficients",
                     "coeff_theta", "coeff_mu", "coeff_sigma2", "grid",
                     "times", "coeff_alpha", "mean_theta"):
            assert not getattr(small_model, name).flags.writeable, name
        record = {**small_model.options_record, "weight_theta": 2.0}
        assert record["nugget"] == small_model.options_record["nugget"]

    def test_pickle_round_trip(self, small_model, desk_setup):
        copy = pickle.loads(pickle.dumps(small_model))
        assert copy.options_record == small_model.options_record
        assert np.array_equal(copy.coeff_alpha, small_model.coeff_alpha)
        assert not copy.coeff_theta.flags.writeable
        with pytest.raises(TypeError):
            copy.options_record["nugget"] = 0.0
        probe = desk_setup["ranges"].scale(np.array([0.3, 0.6, 0.9]))
        assert np.array_equal(predict_field(copy, probe),
                              predict_field(small_model, probe))

    @pytest.mark.parametrize("name", ["centered", "uncentered"])
    def test_golden_file_layout(self, name, tmp_path):
        # small KSEM1 files kept as written (4 cases, 12 points, 6 steps):
        # they re-save byte for byte but for the coefficient means and
        # variances, which the model derives, and case 0 read straight from
        # the file at the offsets the layout implies equals the loaded arrays
        path = DATA / f"ksem1_{name}.ksem"
        data = path.read_bytes()
        model = load_model(path)
        save_model(model, tmp_path / "again.ksem")
        again = (tmp_path / "again.ksem").read_bytes()
        n, d, j, m, k_rank, flags = struct.unpack_from("<6Q", data, 6)
        # the files were written when each (mode, time-step) had its own
        # fit: their means and variances differ from the derived ones in the
        # last bits, by at most 2.2e-16 (means) and 8.8e-15 (variances) of
        # the largest, measured; the bounds allow about 4.5 times that
        mu_at = len(data) - 16 * k_rank * m
        assert len(again) == len(data) and again[:mu_at] == data[:mu_at]
        stored = np.frombuffer(data, "<f8", 2 * k_rank * m, mu_at).reshape(2, k_rank, m)
        for derived, kept, bound in zip((model.coeff_mu, model.coeff_sigma2), stored,
                                        (1e-15, 4e-14)):
            assert np.abs(derived - kept).max() <= bound * np.abs(kept).max()
        save_model(load_model(tmp_path / "again.ksem"), tmp_path / "twice.ksem")
        assert (tmp_path / "twice.ksem").read_bytes() == again
        assert k_rank >= 2 and bool(flags & 1) == model.centering
        assert model.library.shape == (n, k_rank + model.centering, j)
        assert model.library.flags.c_contiguous
        # magic, nine header words, five scalars, ranges, grid, times, design
        at = 6 + 9 * 8 + 5 * 8 + 8 * (2 * d + 2 * j + m + n * d)

        def take(count):
            nonlocal at
            arr = np.frombuffer(data, "<f8", count, at)
            at += 8 * count
            return arr

        assert np.array_equal(take(k_rank), model.eigenvalues[0])
        modes = take(j * k_rank).reshape((j, k_rank), order="F")
        assert np.array_equal(modes, model.library[0, :k_rank].T)
        coeffs = take(m * k_rank).reshape((m, k_rank), order="F")
        assert np.array_equal(coeffs, model.coefficients[..., 0].T)
        if model.centering:
            assert np.array_equal(take(j), model.library[0, k_rank])

    @pytest.mark.parametrize("name", ["centered", "uncentered"])
    def test_golden_file_predicts_by_the_ksem1_rule(self, name):
        # a KSEM1 model has no mean_theta: every library row, the mean field
        # included, is blended with the indicator weights, bit for
        # bit as composed here from weight_vector and predict_coefficients
        model = load_model(DATA / f"ksem1_{name}.ksem")
        assert model.mean_theta is None
        rng = np.random.default_rng(3)
        for x in model.ranges.scale(rng.uniform(0.1, 0.9, size=(4, model.dims))):
            for indices in (None, [1], [5, 0]):
                beta = predict_coefficients(model, x, indices)
                if model.centering:
                    beta = np.vstack((beta, np.ones(beta.shape[1])))
                w = weight_vector(model, x).raw
                n = model.n_cases
                rows = (w @ model.library.reshape(n, -1)).reshape(model.library.shape[1:])
                assert np.array_equal(predict_field(model, x, indices), (beta.T @ rows).T)

    def test_options_record_survives(self, small_model, tmp_path):
        path = tmp_path / "model.ksem"
        save_model(small_model, path)
        loaded = load_model(path)
        for key in ("energy_threshold", "nugget", "weight_theta", "centering"):
            assert loaded.options_record[key] == small_model.options_record[key]

    def test_bad_length_scale_or_nugget_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.ksem"
        save_model(small_model, path)
        data = bytearray(path.read_bytes())
        k_rank, m = small_model.coeff_mu.shape
        theta_at = len(data) - 8 * k_rank * m * (small_model.dims + 2)
        nugget_at = 6 + 9 * 8 + 8
        weight_theta_at = 6 + 9 * 8 + 2 * 8
        patches = [(theta_at, -1e-3), (nugget_at, -1e-3)]
        patches += [(weight_theta_at, v) for v in (-1e-3, -1.0, 0.0, np.nan, np.inf)]
        for i, (offset, value) in enumerate(patches):
            patched = bytearray(data)
            patched[offset:offset + 8] = np.float64(value).tobytes()
            bad = tmp_path / f"bad{i}.ksem"
            bad.write_bytes(bytes(patched))
            with pytest.raises(ValueError) as caught:
                load_model(bad)
            assert str(bad) in str(caught.value)

    def test_per_step_length_scales_rejected(self, small_model, tmp_path):
        # a file holds one length-scale vector per mode, listed per
        # (mode, time-step) under header word 8 = 1: a length-scale that
        # differs across a mode's time-steps, or another word 8, is refused
        path = tmp_path / "model.ksem"
        save_model(small_model, path)
        data = path.read_bytes()
        k_rank, m = small_model.coeff_mu.shape
        d = small_model.dims
        theta_at = len(data) - 8 * k_rank * m * (d + 2)
        shared_at = 6 + 7 * 8
        assert struct.unpack_from("<Q", data, shared_at) == (1,)
        assert np.array_equal(np.frombuffer(data, "<f8", d, theta_at + 8 * d),
                              small_model.coeff_theta[0])
        patches = [
            (theta_at + 8 * d, np.float64(2.0 * small_model.coeff_theta[0, 0]).tobytes(),
             "differ across"),
            (shared_at, struct.pack("<Q", 0), "header word 8 is 0"),
        ]
        for i, (offset, raw, message) in enumerate(patches):
            patched = bytearray(data)
            patched[offset:offset + 8] = raw
            bad = tmp_path / f"bad{i}.ksem"
            bad.write_bytes(bytes(patched))
            with pytest.raises(ValueError) as caught:
                load_model(bad)
            assert str(bad) in str(caught.value) and message in str(caught.value)

    def test_non_finite_case_library_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.ksem"
        save_model(small_model, path)
        data = path.read_bytes()
        n, d = small_model.design.shape
        j, m, k_rank = small_model.num_points, small_model.num_snapshots, small_model.rank
        # header, ranges, grid, times and design, then case 0's eigenvalues
        first_mode_at = 6 + 9 * 8 + 5 * 8 + 8 * (2 * d + 2 * j + m + n * d + k_rank)
        first_coeff_at = first_mode_at + 8 * j * k_rank
        for offset in (first_mode_at, first_coeff_at):
            patched = bytearray(data)
            patched[offset:offset + 8] = np.float64(np.nan).tobytes()
            bad = tmp_path / f"nan{offset}.ksem"
            bad.write_bytes(bytes(patched))
            with pytest.raises(NonFiniteDataError):
                load_model(bad)

    def test_corrupt_model_rejected(self, tmp_path):
        from kspod.errors import BadMagicError
        path = tmp_path / "junk.ksem"
        path.write_bytes(b"NOTIT\n" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_uncentered_model_round_trip(self, tmp_path):
        cases = [
            analytic_case(2.0, 1.0, [0.1], "a"),
            analytic_case(2.5, 1.1, [0.6], "b"),
            analytic_case(3.0, 1.2, [0.9], "c"),
        ]
        model = train(cases, TrainOptions(centering=False, num_modes=2))
        path = tmp_path / "model.ksem"
        save_model(model, path)
        loaded = load_model(path)
        assert not loaded.centering
        assert loaded.options_record["num_modes"] == 2
        assert np.array_equal(predict_field(loaded, [0.42]),
                              predict_field(model, [0.42]))
