import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kspod import kriging
from kspod.design import generate_slhd
from kspod.errors import IllConditionedError
from kspod.kriging import (
    DEFAULT_LOG_THETA_BOUNDS,
    DEFAULT_NUGGET,
    CorrelationParams,
    FitOptions,
    OrdinaryKriging,
    fit_indicator_theta,
    fit_theta,
    _ones_block,
    _profile_nll,
)


def predictor(x_pts, y, params):
    """The conditional mean mu + r . alpha of OrdinaryKriging's fit of y, at a
    query (d,) or a block (q, d), as the emulator predicts its coefficients."""
    mu, _, alpha = OrdinaryKriging(x_pts, params).fit(y)

    def predict(x_new):
        x_new = np.asarray(x_new, dtype=float)
        return mu + np.exp(-((x_pts - x_new[..., None, :]) ** 2) @ params.theta) @ alpha
    return predict


def fitted(x_pts, y, options=FitOptions()):
    """fit_theta's parameters for y and their predictor."""
    params = CorrelationParams(fit_theta(x_pts, y, options), options.nugget)
    return params, predictor(x_pts, y, params)


def dense_predict(x_pts, y, theta, nugget, x_new):
    """Brute-force conditional mean via full solves (oracle)."""
    n = x_pts.shape[0]
    diffs = (x_pts[:, None, :] - x_pts[None, :, :]) ** 2
    rmat = np.exp(-diffs @ theta) + nugget * np.eye(n)
    rinv = np.linalg.inv(rmat)
    ones = np.ones(n)
    mu = (ones @ rinv @ y) / (ones @ rinv @ ones)
    r = np.exp(-((x_pts - x_new) ** 2) @ theta)
    return mu + r @ rinv @ (y - mu * ones)


def dense_indicator_weights(x_pts, theta, nugget, x_new):
    n = x_pts.shape[0]
    diffs = (x_pts[:, None, :] - x_pts[None, :, :]) ** 2
    rmat = np.exp(-diffs @ theta) + nugget * np.eye(n)
    rinv = np.linalg.inv(rmat)
    ones = np.ones(n)
    r = np.exp(-((x_pts - x_new) ** 2) @ theta)
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        mu = (ones @ rinv @ e) / (ones @ rinv @ ones)
        out[i] = mu + r @ rinv @ (e - mu * ones)
    return out


def unmemoized_search(x_pts, y, options=FitOptions()):
    """fit_theta's multistart search with every evaluation scored afresh by
    _profile_nll. Returns the best log-theta, its score and each scored
    (log-theta bytes, score) pair in order."""
    diffs = kriging._sq_diffs(x_pts)
    lo, hi = options.log_theta_bounds
    scored = []

    def objective(log_theta):
        score = _profile_nll(diffs, _ones_block(y), options.nugget, log_theta)
        scored.append((log_theta.tobytes(), score))
        return score

    best_x, best_f = min(
        (kriging._coordinate_search(objective, x0, lo, hi)
         for x0 in kriging._starts(x_pts.shape[1], options.restarts, lo, hi)),
        key=lambda searched: searched[1],
    )
    return best_x, best_f, scored


class TestFitAndPredict:
    def test_constant_observations(self):
        x_pts = np.random.default_rng(0).uniform(size=(6, 2))
        _, predict = fitted(x_pts, np.full(6, 3.25))
        for probe in np.random.default_rng(1).uniform(size=(5, 2)):
            assert predict(probe) == pytest.approx(3.25, abs=1e-9)

    def test_interpolation_property(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            n, d = int(rng.integers(3, 15)), int(rng.integers(1, 4))
            x_pts = rng.uniform(size=(n, d))
            y = rng.normal(size=n)
            _, predict = fitted(x_pts, y)
            tol = 1e-6 * max(np.ptp(y), 1e-12)
            for i in range(n):
                assert abs(predict(x_pts[i]) - y[i]) <= tol

    def test_sin_recovery(self):
        x_pts = np.linspace(0.0, 1.0, 8)[:, None]
        y = np.sin(2.0 * np.pi * x_pts[:, 0])
        _, predict = fitted(x_pts, y)
        mids = 0.5 * (x_pts[1:, 0] + x_pts[:-1, 0])
        preds = np.array([predict([m]) for m in mids])
        rmse = np.sqrt(np.mean((preds - np.sin(2.0 * np.pi * mids)) ** 2))
        assert rmse < 0.05

    def test_single_point(self):
        _, predict = fitted(np.array([[0.3, 0.7]]), np.array([2.5]))
        assert predict([0.9, 0.1]) == pytest.approx(2.5, abs=1e-12)

    def test_midpoint_symmetry(self):
        x_pts = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        for theta in (0.3, 2.0, 25.0):
            params = CorrelationParams(np.array([theta]), nugget=1e-8)
            assert predictor(x_pts, y, params)([0.5]) == pytest.approx(0.5, abs=1e-10)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        for n in (5, 20, 50):
            x_pts = rng.uniform(size=(n, 3))
            y = rng.normal(size=n)
            params, predict = fitted(x_pts, y)
            for probe in rng.uniform(-0.2, 1.2, size=(4, 3)):
                oracle = dense_predict(x_pts, y, params.theta, params.nugget, probe)
                assert predict(probe) == pytest.approx(oracle, abs=1e-10)

    def test_optimizer_beats_random_probes(self):
        rng = np.random.default_rng(4)
        x_pts = rng.uniform(size=(12, 2))
        y = np.sin(3.0 * x_pts[:, 0]) + 0.5 * x_pts[:, 1] ** 2
        params, _ = fitted(x_pts, y)
        diffs = (x_pts[:, None, :] - x_pts[None, :, :]) ** 2

        def objective(log_theta):
            return _profile_nll(diffs, _ones_block(y), params.nugget, log_theta)

        best = objective(np.log(params.theta))
        probes = rng.uniform(-6.0, 6.0, size=(32, 2))
        assert all(objective(p) >= best - 1e-9 for p in probes)

    def test_profile_nll_matches_dense_formula(self):
        # one dataset (n,) and a block (n, q): the sum over datasets of
        # n/2 log(sigma2) + 1/2 log det R, each with its own GLS mean. The
        # LU oracle and the Cholesky path each err by about cond(R) * eps,
        # so R's condition number is kept below 1e5 for rel 1e-12.
        rng = np.random.default_rng(12)
        x_pts = rng.uniform(size=(12, 3))
        cases = [(rng.normal(size=12), rng.uniform(-2.0, 2.0, size=(5, 3)))]
        cases.append((rng.normal(size=(12, 4)), rng.uniform(-1.0, 2.0, size=(5, 3))))
        diffs = (x_pts[:, None, :] - x_pts[None, :, :]) ** 2
        ones = np.ones(12)
        for y, log_thetas in cases:
            for log_theta in log_thetas:
                rmat = np.exp(-diffs @ np.exp(log_theta)) + 1e-8 * np.eye(12)
                assert np.linalg.cond(rmat) < 1e5
                mu = (ones @ np.linalg.solve(rmat, y)) \
                    / (ones @ np.linalg.solve(rmat, ones))
                resid = y - mu
                sigma2 = np.sum(resid * np.linalg.solve(rmat, resid), axis=0) / 12
                expected = np.sum(6.0 * np.log(sigma2)
                                  + 0.5 * np.linalg.slogdet(rmat)[1])
                block = _ones_block(y)
                assert _profile_nll(diffs, block, 1e-8, log_theta) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_profile_nll_refusals(self):
        # coincident inputs without a nugget: R is not positive definite
        x_dup = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.8]])
        diffs = kriging._sq_diffs(x_dup)
        assert kriging._cholesky(diffs, np.ones(2), 0.0) is None
        block = _ones_block(np.array([1.0, 1.0, 2.0]))
        assert _profile_nll(diffs, block, 0.0, np.zeros(2)) == np.inf
        # near-flat correlations: R factorizes, but its smallest pivot^2 is
        # within 10 nuggets, so R is numerically singular
        x_pts = np.linspace(0.0, 1.0, 12)[:, None]
        diffs = kriging._sq_diffs(x_pts)
        factor = kriging._cholesky(diffs, np.exp([-6.0]), DEFAULT_NUGGET)
        assert factor is not None
        assert np.min(np.diag(factor)) ** 2 <= 10.0 * DEFAULT_NUGGET
        y = np.column_stack([np.sin(6.0 * x_pts[:, 0]), x_pts[:, 0] ** 2])
        for data in (y[:, 0], y):
            block = _ones_block(data)
            assert _profile_nll(diffs, block, DEFAULT_NUGGET, np.array([-6.0])) == np.inf

    def test_duplicates_without_nugget(self):
        x_pts = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.8]])
        with pytest.raises(IllConditionedError):
            fitted(x_pts, np.array([1.0, 1.0, 2.0]), FitOptions(nugget=0.0, restarts=1))

    def test_mu_hat_identity(self):
        rng = np.random.default_rng(5)
        x_pts = rng.uniform(size=(10, 2))
        y = rng.normal(size=10)
        params, _ = fitted(x_pts, y)
        diffs = (x_pts[:, None, :] - x_pts[None, :, :]) ** 2
        rmat = np.exp(-diffs @ params.theta) + params.nugget * np.eye(10)
        rinv = np.linalg.inv(rmat)
        ones = np.ones(10)
        mu = (ones @ rinv @ y) / (ones @ rinv @ ones)
        assert OrdinaryKriging(x_pts, params).fit(y)[0] == pytest.approx(mu, abs=1e-10)


class TestCholeskyPath:
    @pytest.mark.parametrize("n, d, order", [(1, 1, "C"), (7, 2, "F"), (80, 3, "C")])
    def test_sq_diffs_match_broadcast(self, n, d, order):
        x_pts = np.asarray(np.random.default_rng(19).uniform(size=(n, d)), order=order)
        diffs = kriging._sq_diffs(x_pts)
        assert diffs.flags.c_contiguous
        assert np.array_equal(diffs, (x_pts[:, None, :] - x_pts[None, :, :]) ** 2)

    @pytest.mark.parametrize("n, d", [(5, 1), (30, 3), (80, 3), (40, 8)])
    def test_one_gemv_exponent_matches_stacked_products(self, n, d):
        # the (n * n, d) gemv builds the same exponent, bit for bit, as the
        # (n, n, d) operand's n products of (n, d) by (d,)
        rng = np.random.default_rng(n + d)
        diffs = kriging._sq_diffs(rng.uniform(size=(n, d)))
        theta = np.exp(rng.uniform(-2.0, 2.0, size=d))
        rmat = diffs @ -theta
        np.exp(rmat, out=rmat)
        rmat.flat[::n + 1] += DEFAULT_NUGGET
        expected = kriging.dpotrf(rmat.T, lower=1, clean=0)[0]
        assert np.array_equal(kriging._cholesky(diffs, theta, DEFAULT_NUGGET), expected)

    def test_shared_square_differences(self):
        # fits and weights of an object given the inputs' squared
        # differences equal those of one that builds them
        rng = np.random.default_rng(20)
        x_pts = rng.uniform(size=(9, 2))
        diffs, params = kriging._sq_diffs(x_pts), CorrelationParams(np.array([0.7, 2.0]))
        shared, own = OrdinaryKriging(x_pts, params, diffs), OrdinaryKriging(x_pts, params)
        y = rng.normal(size=(3, 9))
        for a, b in zip(own.fit(y), shared.fit(y)):
            assert np.array_equal(a, b)
        queries = rng.uniform(size=(4, 2))
        assert np.array_equal(shared.weights(queries), own.weights(queries))

    def test_stacked_systems_share_one_factor(self, monkeypatch):
        # stacked (2, 3) systems under one theta: one factorization, one
        # forward and one back block solve, and every system still solved
        # exactly as on its own
        rng = np.random.default_rng(15)
        x_pts = rng.uniform(size=(10, 2))
        theta = np.exp(rng.uniform(-1.0, 2.0, size=2))
        y = rng.normal(size=(2, 3, 10))
        calls = {"factor": 0, "solve": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(kriging, "_cholesky", counted("factor", kriging._cholesky))
        monkeypatch.setattr(kriging, "dtrtrs", counted("solve", kriging.dtrtrs))
        params = CorrelationParams(theta)
        mu, sigma2, alpha = OrdinaryKriging(x_pts, params).fit(y)
        assert calls == {"factor": 1, "solve": 2}
        assert mu.shape == sigma2.shape == (2, 3) and alpha.shape == y.shape
        for i in np.ndindex(2, 3):
            one = OrdinaryKriging(x_pts, params).fit(y[i])
            assert all(np.array_equal(a, b[i]) for a, b in zip(one, (mu, sigma2, alpha)))

    def test_one_theta_only(self):
        # every dataset of a fit shares one length-scale vector of the
        # inputs' dimension
        rng = np.random.default_rng(18)
        x_pts = rng.uniform(size=(6, 2))
        with pytest.raises(ValueError, match="theta must be a \\(2,\\) vector"):
            OrdinaryKriging(x_pts, CorrelationParams(np.ones(3))).fit(rng.normal(size=(3, 6)))

    # the ids name the role: "fit_fixed" is the fit at a fixed theta and
    # "IndicatorKriging" the factor under an isotropic indicator parameter
    @pytest.mark.parametrize("factorize", ["fit_fixed", "IndicatorKriging"])
    def test_duplicates_without_nugget(self, factorize):
        x_pts = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.8]])
        with pytest.raises(IllConditionedError):
            if factorize == "fit_fixed":
                OrdinaryKriging(x_pts, CorrelationParams(np.ones(2), 0.0)).fit(
                    np.array([1.0, 1.0, 2.0]))
            else:
                OrdinaryKriging(x_pts, CorrelationParams.isotropic(1.0, 2, nugget=0.0))

    def test_one_factor_serves_fits_and_weights(self, monkeypatch):
        # the object factorizes once; its fits and weights reuse the factor,
        # and the weight form w(x) . y of a fit's prediction is its
        # mu + r(x) . alpha
        rng = np.random.default_rng(21)
        x_pts = rng.uniform(size=(8, 2))
        calls = []
        real = kriging._cholesky
        monkeypatch.setattr(kriging, "_cholesky",
                            lambda *args: calls.append(1) or real(*args))
        gp = OrdinaryKriging(x_pts, CorrelationParams(np.array([1.5, 0.4])))
        y = rng.normal(size=8)
        mu, _, alpha = gp.fit(y)
        gp.fit(rng.normal(size=(2, 8)))
        for probe in rng.uniform(-0.2, 1.2, size=(5, 2)):
            r = np.exp(-((x_pts - probe) ** 2) @ gp.theta)
            assert gp.weights(probe) @ y == pytest.approx(mu + r @ alpha, rel=1e-8, abs=1e-10)
        assert calls == [1]


# the entry ids name the role, as in TestCholeskyPath.test_duplicates_without_nugget
def _call_entry(entry, x_pts, y):
    if entry == "fit_theta":
        fit_theta(x_pts, y, FitOptions(restarts=1))
    elif entry == "fit_fixed":
        OrdinaryKriging(x_pts, CorrelationParams(np.ones(x_pts.shape[1]))).fit(y)
    else:
        OrdinaryKriging(x_pts, CorrelationParams.isotropic(1.0, x_pts.shape[1]))


@pytest.mark.parametrize("entry, bad", [
    ("fit_theta", "nan_y"), ("fit_theta", "short_y"), ("fit_theta", "nan_x"),
    ("fit_fixed", "nan_y"), ("fit_fixed", "short_y"), ("fit_fixed", "nan_x"),
    ("IndicatorKriging", "nan_x"),
])
def test_bad_data_rejected_up_front(entry, bad):
    rng = np.random.default_rng(16)
    x_pts = rng.uniform(size=(8, 2))
    y = np.sin(4.0 * x_pts[:, 0]) + x_pts[:, 1]
    if bad == "nan_y":
        y[3] = np.nan
    elif bad == "short_y":
        y = y[:-1]
    else:
        x_pts[3, 1] = np.nan
    with pytest.raises(ValueError, match="count" if bad == "short_y" else "finite"):
        _call_entry(entry, x_pts, y)


class TestBlockSearch:
    """fit_theta searches one length-scale vector for a dataset (n,) or for
    an (n, q) block of datasets that share it."""

    @staticmethod
    def block_inputs():
        rng = np.random.default_rng(13)
        x_pts = rng.uniform(size=(12, 3))
        smooth = np.sin(3.0 * x_pts[:, 0]) + x_pts[:, 1] * x_pts[:, 2]
        block = np.column_stack([smooth, np.cos(2.0 * x_pts[:, 2]), smooth ** 2])
        return x_pts, block

    def test_constant_data_keep_unit_theta(self, caplog):
        x_pts, block = self.block_inputs()
        with caplog.at_level(logging.DEBUG, logger="kspod"):
            for y in (np.full(12, 2.5), np.tile(block[:1], (12, 1))):
                assert np.array_equal(fit_theta(x_pts, y), np.ones(3))
        assert not [r for r in caplog.records if r.name == "kspod"]

    def test_block_shares_one_theta(self):
        # the block's theta scores the summed likelihood of its columns no
        # worse than each column's own theta or the centre start does
        x_pts, block = self.block_inputs()
        theta = fit_theta(x_pts, block)
        assert theta.shape == (3,)
        diffs = kriging._sq_diffs(x_pts)

        def block_nll(th):
            return _profile_nll(diffs, _ones_block(block), DEFAULT_NUGGET, np.log(th))

        own = [fit_theta(x_pts, y) for y in block.T]
        assert not any(np.array_equal(theta, t) for t in own)
        assert all(block_nll(theta) <= block_nll(t) for t in own + [np.ones(3)])

    def test_duplicates_without_nugget(self):
        x_pts = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.8]])
        y = np.column_stack([[1.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        with pytest.raises(IllConditionedError):
            fit_theta(x_pts, y, FitOptions(nugget=0.0, restarts=1))

    def test_given_starts(self, caplog):
        # starts replace the start table: the box centre alone is restarts=1,
        # points outside the box are clipped to it, and several starts keep
        # the best end point
        x_pts, block = self.block_inputs()
        lo, hi = DEFAULT_LOG_THETA_BOUNDS
        one = fit_theta(x_pts, block, FitOptions(restarts=1))
        assert np.array_equal(fit_theta(x_pts, block, starts=np.zeros(3)), one)
        assert np.array_equal(fit_theta(x_pts, block, starts=[[-9.0, 1.0, 20.0]]),
                              fit_theta(x_pts, block, starts=[[lo, 1.0, hi]]))
        table = kriging._starts(3, 8, lo, hi)
        assert np.array_equal(fit_theta(x_pts, block, starts=table), fit_theta(x_pts, block))
        # the distinct length-scales scored are counted for the caller
        theta, scored = kriging._search_theta(x_pts, block, starts=np.log(one))
        assert np.array_equal(theta, one)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kspod"):
            fit_theta(x_pts, block, starts=np.log(one))
        assert caplog.records[-1].args[0] == scored > 0
        for bad in ([0.0, 0.0], [[0.0, np.nan, 0.0]], np.zeros((2, 2, 3))):
            with pytest.raises(ValueError, match="starts"):
                fit_theta(x_pts, block, starts=bad)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_theta_independent_of_memory_layout(self, layout):
        # the same (n, q) values give the same theta, bit for bit, whether
        # they are row-major, column-major or a strided slice of a larger
        # array (as a mode's block of an (n, m, K) coefficient tensor is)
        x_pts, block = self.block_inputs()
        wide = np.zeros(block.shape + (3,))
        wide[:, :, 1] = block
        given = {"C": np.ascontiguousarray(block), "F": np.asfortranarray(block),
                 "strided": wide[:, :, 1]}[layout]
        assert np.array_equal(fit_theta(x_pts, given),
                              fit_theta(x_pts, np.ascontiguousarray(block)))

    @staticmethod
    def search_inputs(data):
        if data == "sine":
            x_pts = np.linspace(0.0, 1.0, 8)[:, None]
            return x_pts, np.sin(2.0 * np.pi * x_pts[:, 0])
        return TestBlockSearch.block_inputs()

    def test_debug_record_counts(self, caplog):
        # one record per search. Its counts add up against the same search
        # run unmemoized: the distinct log-theta scored plus the repeats
        # answered from memory are all the evaluations, and the rejected
        # ones are the distinct log-theta that score inf. With log-theta
        # bounds (-6, -3) the fit sits on a bound and near-flat correlations
        # make R numerically singular, so some evaluations are refused.
        x_pts, block = self.block_inputs()
        cases = [(block, FitOptions()),
                 (block[:, 0], FitOptions(log_theta_bounds=(-6.0, -3.0)))]
        with caplog.at_level(logging.DEBUG, logger="kspod"):
            for y, options in cases:
                fit_theta(x_pts, y, options)
        records = [r for r in caplog.records if r.name == "kspod"]
        assert len(records) == 2
        for record, (y, options) in zip(records, cases):
            distinct, repeats, rejected, on_bounds, dims = record.args
            best_x, _, scored = unmemoized_search(x_pts, y, options)
            scores = dict(scored)
            assert distinct == len(scores) and distinct + repeats == len(scored)
            assert repeats > 0
            assert rejected == list(scores.values()).count(np.inf)
            lo, hi = options.log_theta_bounds
            assert on_bounds == np.sum((best_x <= lo) | (best_x >= hi)) and dims == 3
        _, _, rejected, on_bounds, _ = records[1].args
        assert rejected > 0 and on_bounds > 0

    @pytest.mark.parametrize("data", ["sine", "block"])
    def test_matches_unmemoized_search(self, data):
        # remembering scores changes no decision of the search
        x_pts, y = self.search_inputs(data)
        best_x, _, _ = unmemoized_search(x_pts, y)
        assert np.array_equal(fit_theta(x_pts, y), np.exp(best_x))

    @pytest.mark.parametrize("data", ["sine", "block"])
    def test_each_theta_factorized_once(self, data, monkeypatch):
        # the starts revisit length-scales, but each distinct one costs a
        # single factorization in one fit_theta call
        x_pts, y = self.search_inputs(data)
        scored = unmemoized_search(x_pts, y)[2]
        factorized = []
        real = kriging._cholesky

        def spy(diffs, theta, nugget):
            factorized.append(theta.tobytes())
            return real(diffs, theta, nugget)

        monkeypatch.setattr(kriging, "_cholesky", spy)
        fit_theta(x_pts, y)
        assert len(factorized) == len(set(factorized)) == len(dict(scored))
        assert len(factorized) < len(scored)

    @pytest.mark.parametrize("data", ["sine", "block"])
    def test_no_last_step_move_improves(self, data):
        # the search stops when no coordinate move by its last step, 1.5/2^4,
        # lowers the negative likelihood by more than 1e-12; the returned
        # theta must satisfy that, whichever start it came from
        x_pts, y = self.search_inputs(data)
        lo, hi = DEFAULT_LOG_THETA_BOUNDS
        diffs, block = kriging._sq_diffs(x_pts), _ones_block(y)
        log_theta = np.log(fit_theta(x_pts, y))
        best = _profile_nll(diffs, block, DEFAULT_NUGGET, log_theta)
        moves = 0
        for k in range(log_theta.size):
            for sign in (1.0, -1.0):
                trial = log_theta.copy()
                trial[k] = np.clip(trial[k] + sign * 1.5 * 2.0 ** -4, lo, hi)
                if trial[k] == log_theta[k]:
                    continue
                moves += 1
                assert _profile_nll(diffs, block, DEFAULT_NUGGET, trial) >= best - 1e-12
        assert moves > 0


def test_import_leaves_scipy_optimize_unloaded():
    # the length-scale search is self-contained; importing the package
    # must not pull in scipy's optimizers
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, kspod; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_import_leaves_scipy_spatial_and_sparse_unloaded():
    # the maximin pass computes its distances with numpy; scipy serves
    # only LAPACK, and scipy.spatial would pull in scipy.sparse. Older
    # scipy.linalg packages import scipy.sparse themselves, so only what
    # kspod loads beyond scipy.linalg.lapack counts.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, scipy.linalg.lapack; "
            "pre = lambda: {m for m in sys.modules "
            "if m.startswith(('scipy.spatial', 'scipy.sparse'))}; "
            "base = pre(); import kspod; print(sorted(pre() - base))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestIndicatorWeights:
    def test_unit_vectors_at_training_points(self):
        rng = np.random.default_rng(6)
        x_pts = rng.uniform(size=(9, 3))
        weights = OrdinaryKriging(x_pts, CorrelationParams.isotropic(8.0, 3)).weights
        for j in range(9):
            w = weights(x_pts[j])
            expected = np.zeros(9)
            expected[j] = 1.0
            assert np.abs(w - expected).max() < 1e-6

    def test_raw_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        x_pts = rng.uniform(size=(15, 2))
        weights = OrdinaryKriging(x_pts, CorrelationParams.isotropic(5.0, 2)).weights
        for probe in rng.uniform(-0.5, 1.5, size=(50, 2)):
            w = weights(probe)
            assert w.sum() == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        x_pts = rng.uniform(size=(7, 2))
        params = CorrelationParams.isotropic(4.0, 2)
        probe = np.array([0.42, 0.77])
        w = OrdinaryKriging(x_pts, params).weights(probe)
        oracle = dense_indicator_weights(x_pts, params.theta,
                                         params.nugget, probe)
        assert np.abs(w - oracle).max() < 1e-10

    def test_negative_weights_not_clamped(self):
        x_pts = np.linspace(0.0, 1.0, 6)[:, None]
        params = CorrelationParams.isotropic(10.0, 1)
        w = OrdinaryKriging(x_pts, params).weights(np.array([1.35]))
        assert w.min() < 0.0

    def test_non_finite_query_rejected(self):
        # NaN and +-inf, alone or in a row of a block
        x_pts = np.linspace(0.0, 1.0, 6)[:, None]
        kriging_w = OrdinaryKriging(x_pts, CorrelationParams.isotropic(10.0, 1))
        for bad in (np.nan, np.inf, -np.inf):
            for query in (np.array([bad]), np.array([[0.5], [bad]])):
                with pytest.raises(ValueError, match="query must be finite"):
                    kriging_w.weights(query)

    def test_gaussian_kernel_limit(self):
        # Well-separated design, query close to one point: all other kernel
        # values fall below 1e-6 and the near weight matches the kernel to 1%.
        corners = np.array([[float(b) for b in f"{i:03b}"] for i in range(8)])
        weights = OrdinaryKriging(corners, CorrelationParams.isotropic(50.0, 3)).weights
        for j in range(8):
            probe = corners[j] + (0.015 if j % 2 == 0 else -0.015)
            w = weights(probe)
            kernel = np.exp(-50.0 * np.sum((corners - probe) ** 2, axis=1))
            comparable = kernel > 1e-6
            assert comparable.sum() == 1
            rel = np.abs(w[comparable] - kernel[comparable]) / kernel[comparable]
            assert rel.max() < 0.01

    def test_shared_theta_mle_runs(self):
        rng = np.random.default_rng(9)
        x_pts = rng.uniform(size=(12, 3))
        theta = fit_indicator_theta(x_pts)
        assert np.isfinite(theta) and theta > 0.0

    def test_block_equals_single_queries(self):
        # a (q, d) block runs the per-query code on every row at once and
        # gives the same bits, at probes and at the inputs themselves
        rng = np.random.default_rng(18)
        x_pts = rng.uniform(size=(30, 3))
        for theta in (0.05, 6.4, 50.0):
            kriging_w = OrdinaryKriging(x_pts, CorrelationParams.isotropic(theta, 3))
            for probes in (rng.uniform(-0.2, 1.2, size=(37, 3)), x_pts, x_pts[:1]):
                block = kriging_w.weights(probes)
                assert block.shape == (len(probes), 30)
                assert np.array_equal(block, [kriging_w.weights(p) for p in probes])

    def test_block_query_dimension_checked(self):
        kriging_w = OrdinaryKriging(np.eye(3), CorrelationParams.isotropic(1.0, 3))
        for bad in (np.zeros((4, 2)), np.zeros((2, 4, 3))):
            with pytest.raises(ValueError, match=r"\(3,\) vector or \(q, 3\) array"):
                kriging_w.weights(bad)


def bordered_identity_residual(x_pts, theta, nugget):
    """max |w(x_j) - e_j| from a dense inverse of the bordered ordinary-
    kriging matrix [[R + nugget I, 1], [1', 0]] (oracle)."""
    n = x_pts.shape[0]
    rmat = np.exp(-theta * ((x_pts[:, None, :] - x_pts[None, :, :]) ** 2).sum(axis=2))
    bordered = np.ones((n + 1, n + 1))
    bordered[:n, :n] = rmat + nugget * np.eye(n)
    bordered[n, n] = 0.0
    weights = np.linalg.inv(bordered)[:n] @ np.vstack([rmat, np.ones(n)])
    return float(np.abs(weights - np.eye(n)).max())


class TestIndicatorTheta:
    """fit_indicator_theta: the smallest theta on the IDENTITY_LOG_STEP grid
    whose weights reproduce the unit vectors at the inputs to IDENTITY_TOL."""

    LOG_GRID = np.append(DEFAULT_LOG_THETA_BOUNDS[0]
                         + kriging.IDENTITY_LOG_STEP * np.arange(240),
                         DEFAULT_LOG_THETA_BOUNDS[1])

    @pytest.mark.parametrize("x_pts", [
        generate_slhd(5, 6, 3, seed=0).points,    # acceptance criterion 05
        generate_slhd(8, 10, 3, seed=1).points,
        np.random.default_rng(9).uniform(size=(12, 3)),
    ], ids=["criterion05", "slhd80", "uniform12"])
    def test_first_grid_point_within_tolerance(self, x_pts):
        fitted = fit_indicator_theta(x_pts)
        at = int(np.argmin(np.abs(np.log(fitted) - self.LOG_GRID)))
        assert 0 < at < self.LOG_GRID.size - 1
        assert fitted == np.exp(self.LOG_GRID[at])
        oracle = [bordered_identity_residual(x_pts, np.exp(g), DEFAULT_NUGGET)
                  for g in self.LOG_GRID[:at + 1]]
        assert oracle[-1] <= kriging.IDENTITY_TOL
        assert min(oracle[:-1]) > kriging.IDENTITY_TOL

    def test_zero_nugget_pick_keeps_identity(self):
        # nugget * Q_nn vanishes at a zero nugget, yet round-off alone
        # breaks the identity at the lower bound: the pick is measured
        x_pts = generate_slhd(5, 6, 3, seed=0).points
        fitted = fit_indicator_theta(x_pts, nugget=0.0)
        assert np.log(fitted) > DEFAULT_LOG_THETA_BOUNDS[0] + 1.0
        weights = OrdinaryKriging(
            x_pts, CorrelationParams.isotropic(fitted, 3, nugget=0.0)).weights(x_pts)
        assert np.abs(weights - np.eye(30)).max() <= kriging.IDENTITY_TOL

    def test_large_nugget_falls_back_to_upper_bound(self, caplog):
        x_pts = generate_slhd(5, 6, 3, seed=0).points
        with caplog.at_level(logging.DEBUG, logger="kspod"):
            fitted = fit_indicator_theta(x_pts, nugget=1e-6)
        assert fitted == np.exp(DEFAULT_LOG_THETA_BOUNDS[1])
        (record,) = [r for r in caplog.records if r.name == "kspod"]
        theta, resid, evaluations, fallback = record.args
        assert theta == fitted and resid > kriging.IDENTITY_TOL
        assert evaluations == 1 and fallback is True

    def test_debug_record(self, caplog, monkeypatch):
        x_pts = generate_slhd(5, 6, 3, seed=0).points
        builds = []
        original = kriging._sq_diffs
        monkeypatch.setattr(kriging, "_sq_diffs", lambda x: builds.append(1) or original(x))
        with caplog.at_level(logging.DEBUG, logger="kspod"):
            fitted = fit_indicator_theta(x_pts)
        (record,) = [r for r in caplog.records if r.name == "kspod"]
        theta, resid, evaluations, fallback = record.args
        assert theta == fitted and fallback is False
        assert 0.0 < resid <= kriging.IDENTITY_TOL
        # the upper bound, then a bisection of the 240 candidates below it,
        # every candidate on one array of squared differences
        assert evaluations in (1 + 7, 1 + 8)
        assert len(builds) == 1

    def test_independent_of_case_order(self):
        x_pts = generate_slhd(5, 6, 3, seed=0).points
        fitted = fit_indicator_theta(x_pts)
        rng = np.random.default_rng(19)
        for _ in range(3):
            assert fit_indicator_theta(x_pts[rng.permutation(30)]) == fitted

    def test_bounds_set_the_grid(self):
        # candidates start at the lower bound; the last one is the upper
        # bound even when the span is not a whole number of steps
        x_pts = generate_slhd(5, 6, 3, seed=0).points
        fitted = fit_indicator_theta(x_pts, log_theta_bounds=(1.01, 2.5))
        candidates = np.append(1.01 + kriging.IDENTITY_LOG_STEP * np.arange(30), 2.5)
        assert np.log(fitted) < 2.5 and fitted in np.exp(candidates)
        assert fit_indicator_theta(x_pts, log_theta_bounds=(3.0, 3.01)) == np.exp(3.0)

