"""Summary-statistic and two-stage estimators against explicit oracles."""

import numpy as np
import pytest

from tsre.errors import DataError, EstimationError
from tsre.estimators import (
    _weighted_median,
    egger,
    ivw,
    simple_median,
    tsls,
    weighted_median,
)
from tsre.sumstats import VariantSummary

from conftest import random_standardized


def _summ(gx, gy, se_x=0.1, se_y=0.1):
    return [
        VariantSummary(
            variant_id=f"v{k}",
            gamma_x=float(a),
            se_x=se_x,
            gamma_y=float(b),
            se_y=se_y,
            p_x=0.01,
        )
        for k, (a, b) in enumerate(zip(gx, gy))
    ]


def _summ_w(gx, gy, se_y):
    return [
        VariantSummary(
            variant_id=f"v{k}",
            gamma_x=float(a),
            se_x=0.1,
            gamma_y=float(b),
            se_y=float(s),
            p_x=0.01,
        )
        for k, (a, b, s) in enumerate(zip(gx, gy, se_y))
    ]


class TestTsls:
    def test_matches_two_explicit_stages(self, rng):
        std = random_standardized(rng, 50, 4)
        g = std.values
        x = g @ np.array([0.5, -0.2, 0.1, 0.3]) + rng.normal(size=50)
        y = 0.7 * x + rng.normal(size=50)
        est = tsls(g, x, y)
        # oracle: project the centered exposure onto the instruments, then
        # regress the centered outcome on the fitted values
        xc = x - x.mean()
        yc = y - y.mean()
        xhat = g @ np.linalg.lstsq(g, xc, rcond=None)[0]
        theta = (xhat @ yc) / (xhat @ xhat)
        assert abs(est.theta_hat - theta) < 1e-12
        sigma2 = np.sum((yc - theta * xc) ** 2) / (50 - 1)
        assert abs(est.se - np.sqrt(sigma2 / (xhat @ xhat))) < 1e-12
        assert est.n_iv == 4

    def test_single_instrument_equals_ratio_of_covariances(self, rng):
        std = random_standardized(rng, 40, 1)
        g = std.values
        x = g[:, 0] * 0.4 + rng.normal(size=40)
        y = 0.3 * x + rng.normal(size=40)
        est = tsls(g, x, y)
        xc, yc, gc = x - x.mean(), y - y.mean(), g[:, 0]
        assert abs(est.theta_hat - (gc @ yc) / (gc @ xc)) < 1e-12

    def test_intercept_invariance(self, rng):
        std = random_standardized(rng, 30, 2)
        g = std.values
        x = g @ np.array([0.5, 0.2]) + rng.normal(size=30)
        y = 0.7 * x + rng.normal(size=30)
        a = tsls(g, x, y)
        b = tsls(g, x + 100.0, y - 50.0)
        assert abs(a.theta_hat - b.theta_hat) < 1e-9

    def test_collinear_instruments_rejected(self, rng):
        g = np.ones((10, 2))
        g[:, 1] = 2.0
        g[0, :] = 0.0  # still rank 1
        with pytest.raises(EstimationError, match="singular|signal"):
            tsls(g, np.arange(10.0), np.arange(10.0))

    def test_bad_traits_rejected(self, rng):
        g = random_standardized(rng, 20, 2).values
        x, y = rng.normal(size=20), rng.normal(size=20)
        with pytest.raises(DataError, match="length mismatch"):
            tsls(g, x[:-1], y)
        for bad in (np.nan, np.inf):
            xb = x.copy()
            xb[5] = bad
            with pytest.raises(DataError, match="finite"):
                tsls(g, xb, y)

    def test_more_instruments_than_individuals(self):
        g = np.ones((3, 5))
        with pytest.raises(DataError):
            tsls(g, np.zeros(3), np.zeros(3))

    def test_too_few_individuals(self):
        g = np.ones((2, 1))
        with pytest.raises(EstimationError):
            tsls(g, np.zeros(2), np.zeros(2))


class TestIvw:
    def test_fixed_effect_matches_weighted_average(self):
        gx = np.array([0.2, 0.5, -0.3, 0.4])
        gy = np.array([0.10, 0.12, -0.70, 0.20])
        se_y = np.array([0.05, 0.10, 0.20, 0.08])
        est = ivw(_summ_w(gx, gy, se_y), mode="fixed")
        w = se_y**-2
        theta = np.sum(w * gx * gy) / np.sum(w * gx * gx)
        assert abs(est.theta_hat - theta) < 1e-12
        assert abs(est.se - np.sqrt(1 / np.sum(w * gx * gx))) < 1e-12
        assert est.method == "ivw_fe"

    def test_random_effects_inflates_by_cochran_factor(self):
        gx = np.array([0.2, 0.5, -0.3, 0.4])
        gy = np.array([0.10, 0.12, -0.70, 0.20])
        se_y = np.array([0.05, 0.10, 0.20, 0.08])
        fixed = ivw(_summ_w(gx, gy, se_y), mode="fixed")
        rand = ivw(_summ_w(gx, gy, se_y), mode="random")
        assert rand.theta_hat == fixed.theta_hat
        w = se_y**-2
        q = np.sum(w * (gy - fixed.theta_hat * gx) ** 2)
        phi2 = max(1.0, q / 3)
        assert abs(rand.se - fixed.se * np.sqrt(phi2)) < 1e-12
        assert rand.overdispersion == pytest.approx(phi2)

    def test_homogeneous_case_keeps_fixed_se(self):
        # residuals tiny relative to se_y: overdispersion clips at one
        gx = np.array([0.5, 0.4, 0.6])
        gy = 0.3 * gx
        est = ivw(_summ_w(gx, gy, np.full(3, 1.0)), mode="random")
        assert est.overdispersion == 1.0

    def test_single_instrument_is_the_ratio(self):
        est = ivw(_summ([0.5], [0.2]), mode="random")
        assert abs(est.theta_hat - 0.4) < 1e-12

    def test_mode_validation(self):
        with pytest.raises(DataError):
            ivw(_summ([0.5], [0.2]), mode="bogus")

    def test_zero_signal_rejected(self):
        with pytest.raises(EstimationError):
            ivw(_summ([0.0, 0.0], [0.1, 0.2]))

    def test_zero_outcome_se_rejected(self):
        with pytest.raises(EstimationError):
            ivw(_summ_w([0.5], [0.2], [0.0]))

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            ivw([])


class TestEgger:
    def test_matches_explicit_weighted_least_squares(self, rng):
        k = 12
        gx = rng.normal(0.3, 0.1, size=k)
        gy = 0.4 * gx + 0.05 + rng.normal(0, 0.02, size=k)
        se_y = rng.uniform(0.05, 0.2, size=k)
        est = egger(_summ_w(gx, gy, se_y))
        # oracle: WLS of oriented gy on [1, |gx|-oriented gx]
        flip = np.where(gx < 0, -1.0, 1.0)
        ox, oy = gx * flip, gy * flip
        w = se_y**-2
        design = np.column_stack([np.ones(k), ox])
        wd = design * w[:, None]
        coef = np.linalg.solve(design.T @ wd, wd.T @ oy)
        assert abs(est.intercept - coef[0]) < 1e-10
        assert abs(est.theta_hat - coef[1]) < 1e-10
        resid = oy - design @ coef
        phi2 = np.sum(w * resid**2) / (k - 2)
        cov = np.linalg.inv(design.T @ wd) * max(1.0, phi2)
        assert abs(est.se - np.sqrt(cov[1, 1])) < 1e-10

    def test_orientation_makes_result_sign_invariant(self, rng):
        k = 8
        gx = rng.normal(0.3, 0.1, size=k)
        gy = 0.4 * gx + rng.normal(0, 0.02, size=k)
        base = egger(_summ(gx, gy))
        flipped = egger(_summ(-gx, -gy))
        assert abs(base.theta_hat - flipped.theta_hat) < 1e-12
        assert abs(base.intercept - flipped.intercept) < 1e-12

    def test_pure_intercept_recovered(self):
        gx = np.array([0.2, 0.4, 0.6, 0.8])
        gy = 0.5 * gx + 0.07
        est = egger(_summ(gx, gy))
        assert abs(est.theta_hat - 0.5) < 1e-10
        assert abs(est.intercept - 0.07) < 1e-10

    def test_needs_three_instruments(self):
        with pytest.raises(EstimationError):
            egger(_summ([0.5, 0.4], [0.2, 0.1]))

    def test_constant_oriented_exposure_rejected(self):
        # after orientation all gx identical: slope and intercept confounded
        with pytest.raises(EstimationError, match="singular"):
            egger(_summ([0.5, 0.5, -0.5], [0.2, 0.1, 0.3]))


def _wm_oracle(r, w):
    # scan the sorted ratios for the interpolated 50% crossing
    order = np.argsort(r)
    rs, ws = r[order], w[order]
    p = (np.cumsum(ws) - 0.5 * ws) / ws.sum()
    if 0.5 <= p[0]:
        return rs[0]
    if 0.5 >= p[-1]:
        return rs[-1]
    j = np.searchsorted(p, 0.5, side="right")
    t = (0.5 - p[j - 1]) / (p[j] - p[j - 1])
    return rs[j - 1] + t * (rs[j] - rs[j - 1])


def _wm(r, w):
    # one ratio vector as a one-row matrix, the way weighted_median calls it
    r = np.asarray(r, dtype=float)
    return _weighted_median(r[None, :], np.asarray(w, dtype=float))[0]


class TestWeightedMedianCore:
    def test_equal_weights_match_plain_median_odd(self, rng):
        r = rng.normal(size=9)
        w = np.ones(9)
        assert abs(_wm(r, w) - np.median(r)) < 1e-12

    def test_equal_weights_match_plain_median_even(self, rng):
        r = rng.normal(size=10)
        w = np.ones(10)
        assert abs(_wm(r, w) - np.median(r)) < 1e-12

    def test_dominant_weight_pulls_the_estimate(self):
        # interpolation keeps the estimate just below the heavy point
        r = np.array([1.0, 2.0, 50.0])
        w = np.array([0.01, 0.01, 10.0])
        got = _wm(r, w)
        assert 49.0 < got <= 50.0

    def test_brute_force_percentile_oracle(self, rng):
        for trial in range(25):
            k = int(rng.integers(2, 12))
            r = rng.normal(size=k)
            w = rng.uniform(0.1, 2.0, size=k)
            assert abs(_wm(r, w) - _wm_oracle(r, w)) < 1e-12

    def test_exact_hit_and_single_ratio(self):
        # p = [0.125, 0.5, 0.875]: 0.5 is a knot, so no interpolation error
        assert _wm([1.0, 2.0, 3.0], [1.0, 2.0, 1.0]) == 2.0
        assert _wm([0.7], [3.0]) == 0.7

    def test_vectorised_rows_match_scalar(self, rng):
        ratios = rng.normal(size=(40, 7))
        weights = rng.uniform(0.1, 2.0, size=7)
        rows = _weighted_median(ratios, weights)
        for b in range(40):
            assert abs(rows[b] - _wm_oracle(ratios[b], weights)) < 1e-12

    def test_zero_total_weight_rejected(self):
        with pytest.raises(EstimationError):
            _wm([1.0], [0.0])


class TestMedianEstimators:
    def test_simple_median_point_estimate(self):
        gx = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        gy = np.array([0.1, 0.2, 0.3, 0.9, 1.5])
        est = simple_median(_summ(gx, gy))
        assert est.theta_hat == 0.3

    def test_zero_exposure_effects_dropped(self):
        gx = np.array([0.0, 1.0, 1.0, 1.0])
        gy = np.array([9.9, 0.2, 0.3, 0.4])
        est = simple_median(_summ(gx, gy))
        assert est.theta_hat == 0.3
        assert est.n_iv == 3

    def test_all_zero_exposure_rejected(self):
        with pytest.raises(EstimationError):
            simple_median(_summ([0.0, 0.0], [0.1, 0.2]))

    def test_weighted_median_reduces_to_simple_under_equal_weights(self, rng):
        k = 9
        gx = np.full(k, 0.5)
        gy = rng.normal(0.15, 0.05, size=k)
        sm = simple_median(_summ(gx, gy))
        wm = weighted_median(_summ(gx, gy))
        assert abs(sm.theta_hat - wm.theta_hat) < 1e-12

    def test_bootstrap_se_deterministic_given_rng(self):
        gx = np.array([0.5, 0.6, 0.4, 0.55])
        gy = np.array([0.15, 0.20, 0.10, 0.18])
        a = simple_median(_summ(gx, gy), rng=np.random.default_rng(7))
        b = simple_median(_summ(gx, gy), rng=np.random.default_rng(7))
        c = simple_median(_summ(gx, gy), rng=np.random.default_rng(8))
        assert a.se == b.se
        assert a.se != c.se
        assert a.se > 0

    def test_bootstrap_se_tracks_sampling_noise(self):
        # tight summary errors must produce a tighter bootstrap se
        gx = np.full(15, 0.5)
        gy = np.full(15, 0.15)
        loose = simple_median(
            _summ(gx, gy, se_x=0.2, se_y=0.2), rng=np.random.default_rng(1)
        )
        tight = simple_median(
            _summ(gx, gy, se_x=0.01, se_y=0.01), rng=np.random.default_rng(1)
        )
        assert tight.se < loose.se

    def test_single_instrument_is_the_ratio(self):
        sm = simple_median(_summ([0.5], [0.2]))
        wm = weighted_median(_summ([0.5], [0.2]))
        assert abs(sm.theta_hat - 0.4) < 1e-12
        assert abs(wm.theta_hat - 0.4) < 1e-12
