"""Pairwise second-moment engine against enumerating-all-pairs oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsre import engine, genotype
from tsre.engine import (
    PairMoments,
    moment_diagnostic,
    pair_moments,
    tsre_estimate,
)
from tsre.errors import DataError, EstimationError
from tsre.genotype import Grm, compute_grm, simulate_genotypes, standardize

from conftest import dense_to_packed, random_standardized


def _grm_from_dense(a, m_effective=3):
    return Grm(
        n=a.shape[0],
        lower_triangle=np.ascontiguousarray(dense_to_packed(a)),
        m_effective=m_effective,
    )


def _random_problem(seed, n=None):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(3, 30))
    z = rng.normal(size=(n, 4))
    a = z @ z.T / 4
    x = rng.normal(size=n)
    y = 0.4 * x + rng.normal(size=n)
    return a, x, y


def _pair_table(a, x, y):
    """All pair-level regression variables, enumerated explicitly."""
    n = a.shape[0]
    rows = [
        (a[i, j], x[i] * x[j], (x[i] * y[j] + y[i] * x[j]) / 2)
        for i in range(n)
        for j in range(i)
    ]
    arr = np.array(rows)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def _oracle_theta(a, x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    av, pv, qv = _pair_table(a, xc, yc)
    num = np.sum((av - av.mean()) * (qv - qv.mean()))
    den = np.sum((av - av.mean()) * (pv - pv.mean()))
    return num / den


class TestPairMoments:
    def test_two_individual_worked_example(self):
        # one pair with A_12 = -1, x = (1, 2): s_axx = -1 * 1 * 2 = -2
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        pm = pair_moments(_grm_from_dense(a), np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert pm.s_axx == -2.0
        assert pm.s_a == -1.0
        assert pm.n_pairs == 1
        assert pm.s_xx == 2.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pair_enumeration(self, seed):
        a, x, y = _random_problem(seed)
        pm = pair_moments(_grm_from_dense(a), x, y)
        av, pv, qv = _pair_table(a, x, y)
        assert pm.n_pairs == av.size
        np.testing.assert_allclose(pm.s_axx, np.sum(av * pv), rtol=1e-12)
        np.testing.assert_allclose(pm.s_axy, np.sum(av * qv), rtol=1e-12)
        np.testing.assert_allclose(pm.s_a, av.sum(), rtol=1e-12)
        np.testing.assert_allclose(
            pm.s_xx, sum(x[i] * x[j] for i in range(len(x)) for j in range(i)),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            pm.s_xy,
            sum(
                (x[i] * y[j] + y[i] * x[j]) / 2
                for i in range(len(x))
                for j in range(i)
            ),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            pm.s_xx2,
            sum((x[i] * x[j]) ** 2 for i in range(len(x)) for j in range(i)),
            rtol=1e-12,
        )

    def test_no_centering_applied(self):
        a, x, y = _random_problem(3, n=6)
        grm = _grm_from_dense(a)
        shifted = pair_moments(grm, x + 10.0, y)
        plain = pair_moments(grm, x, y)
        assert shifted.s_axx != pytest.approx(plain.s_axx)

    def test_length_mismatch(self):
        a, x, y = _random_problem(0, n=5)
        with pytest.raises(DataError, match="length mismatch"):
            pair_moments(_grm_from_dense(a), x[:-1], y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phenotype_rejected(self, bad):
        a, x, y = _random_problem(2, n=5)
        x[3] = bad
        with pytest.raises(DataError, match="finite"):
            pair_moments(_grm_from_dense(a), x, y)
        with pytest.raises(DataError, match="finite"):
            tsre_estimate(_grm_from_dense(a), y, x)

    def test_single_individual_rejected(self, rng):
        a = np.array([[1.0]])
        with pytest.raises(DataError):
            pair_moments(_grm_from_dense(a), np.array([1.0]), np.array([1.0]))
        # genotypes need a third: their sums come from per-variant regressions
        std = random_standardized(rng, 2, 5)
        with pytest.raises(DataError, match="at least 3 individuals"):
            pair_moments(std, np.array([1.0, 2.0]), np.array([0.5, 0.0]))

    def test_result_is_immutable(self):
        a, x, y = _random_problem(1, n=4)
        pm = pair_moments(_grm_from_dense(a), x, y)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pm.s_axx = 0.0


class TestTsreEstimate:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration_oracle(self, seed):
        a, x, y = _random_problem(seed)
        fit = tsre_estimate(_grm_from_dense(a), x, y)
        theta = _oracle_theta(a, x, y)
        np.testing.assert_allclose(fit.theta_hat, theta, rtol=1e-10)
        assert fit.n_iv == 3

    def test_exact_recovery_under_proportional_outcome(self):
        rng = np.random.default_rng(42)
        std = random_standardized(rng, 25, 6)
        grm = compute_grm(std)
        x = std.values @ rng.normal(0, 0.5, size=6) + rng.normal(size=25)
        y = 0.37 * x + 1.5  # constant offset removed by internal centering
        fit = tsre_estimate(grm, x, y)
        assert abs(fit.theta_hat - 0.37) < 1e-10

    def test_translation_invariance_covariance_mode(self):
        a, x, y = _random_problem(11)
        grm = _grm_from_dense(a)
        base = tsre_estimate(grm, x, y)
        moved = tsre_estimate(grm, x - 7.25, y + 3.5)
        np.testing.assert_allclose(moved.theta_hat, base.theta_hat, rtol=1e-9)
        np.testing.assert_allclose(moved.se, base.se, rtol=1e-9)

    def test_outcome_scale_equivariance(self):
        a, x, y = _random_problem(12)
        grm = _grm_from_dense(a)
        base = tsre_estimate(grm, x, y)
        scaled = tsre_estimate(grm, x, 3.0 * y)
        np.testing.assert_allclose(scaled.theta_hat, 3.0 * base.theta_hat, rtol=1e-10)

    def test_exposure_scale_equivariance(self):
        a, x, y = _random_problem(13)
        grm = _grm_from_dense(a)
        base = tsre_estimate(grm, x, y)
        scaled = tsre_estimate(grm, 2.0 * x, y)
        np.testing.assert_allclose(scaled.theta_hat, base.theta_hat / 2.0, rtol=1e-10)

    def test_plugin_variance_formula(self):
        a, x, y = _random_problem(15)
        grm = _grm_from_dense(a, m_effective=5)
        fit = tsre_estimate(grm, x, y)
        xc = x - x.mean()
        yc = y - y.mean()
        av, pv, _ = _pair_table(a, xc, yc)
        cov_axx = np.sum((av - av.mean()) * (pv - pv.mean())) / av.size
        resid = yc - fit.theta_hat * xc
        tau2 = np.var(xc, ddof=1) * np.var(resid, ddof=1) / (5 * cov_axx**2)
        np.testing.assert_allclose(fit.se, np.sqrt(tau2 / av.size), rtol=1e-10)

    def test_constant_exposure_trips_guard(self):
        a, _, y = _random_problem(16, n=8)
        with pytest.raises(EstimationError, match="no signal: the exposure does not vary"):
            tsre_estimate(_grm_from_dense(a), np.full(8, 2.0), y)

    def test_zero_grm_trips_guard(self):
        a = np.zeros((6, 6))
        rng = np.random.default_rng(0)
        with pytest.raises(EstimationError):
            tsre_estimate(_grm_from_dense(a), rng.normal(size=6), rng.normal(size=6))

    def test_min_signal_threshold_is_respected(self, monkeypatch):
        a, x, y = _random_problem(17)
        grm = _grm_from_dense(a)
        tsre_estimate(grm, x, y)
        monkeypatch.setattr(engine, "MIN_SIGNAL", 1e6)
        with pytest.raises(EstimationError):
            tsre_estimate(grm, x, y)

    def test_needs_three_individuals(self):
        a = np.array([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(DataError):
            tsre_estimate(_grm_from_dense(a), np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("m_effective", [1, 10**6])
    @pytest.mark.parametrize("n", [3, 6, 50])
    @pytest.mark.parametrize("c", ["zero", "0.3", "-1/(n-1)"])
    def test_constant_pair_relatedness_is_an_error(self, c, n, m_effective):
        # A_ij the same for every pair leaves cov(A, XX) at zero, whatever
        # spread of A the guard assumes
        c = {"zero": 0.0, "0.3": 0.3, "-1/(n-1)": -1.0 / (n - 1)}[c]
        a = np.full((n, n), c) + (1.0 - c) * np.eye(n)
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        y = 0.3 * x + rng.normal(size=n)
        with pytest.raises(EstimationError):
            tsre_estimate(_grm_from_dense(a, m_effective), x, y)

    @pytest.mark.parametrize("n,m", [(30, 8), (20, 60)])
    def test_genotypes_give_the_grm_fit(self, n, m, monkeypatch):
        # both shapes, m <= n and m > n, held whole and streamed, fit from
        # the per-variant summaries and the row norms without a GRM
        rng = np.random.default_rng(n + m)
        gm = simulate_genotypes(n, m, 0.2, 0.3, rng)
        std = standardize(gm)
        monkeypatch.setattr(genotype, "_HELD_CELLS", 0)
        streamed = genotype._standardized_source(gm)
        assert isinstance(streamed, genotype._StreamedGenotypes)
        grm = compute_grm(std)
        x = std.values @ rng.normal(0, 0.5, size=std.m) + rng.normal(size=n)
        y = 0.3 * x + rng.normal(size=n)
        via_grm = tsre_estimate(grm, x, y)
        for source in (std, streamed):
            direct = tsre_estimate(source, x, y)
            np.testing.assert_allclose(direct.theta_hat, via_grm.theta_hat, rtol=1e-12)
            np.testing.assert_allclose(direct.se, via_grm.se, rtol=1e-12)
            assert direct.n_iv == via_grm.n_iv == std.m
        for source in (std, streamed, grm):
            with pytest.raises(EstimationError, match="no signal: the exposure does not vary"):
                tsre_estimate(source, np.full(n, 2.0), y)

    def test_permutation_invariance(self):
        a, x, y = _random_problem(19, n=12)
        perm = np.random.default_rng(3).permutation(12)
        base = tsre_estimate(_grm_from_dense(a), x, y)
        permuted = tsre_estimate(
            _grm_from_dense(a[np.ix_(perm, perm)]), x[perm], y[perm]
        )
        np.testing.assert_allclose(permuted.theta_hat, base.theta_hat, rtol=1e-10)
        np.testing.assert_allclose(permuted.se, base.se, rtol=1e-10)


class TestMomentDiagnostic:
    def test_vanishes_at_own_theta_hat(self):
        a, x, y = _random_problem(20)
        grm = _grm_from_dense(a)
        fit = tsre_estimate(grm, x, y)
        mean, _ = moment_diagnostic(grm, x, y, fit.theta_hat)
        assert abs(mean) < 1e-12

    def test_nonzero_away_from_theta_hat(self):
        a, x, y = _random_problem(21)
        grm = _grm_from_dense(a)
        fit = tsre_estimate(grm, x, y)
        mean, z = moment_diagnostic(grm, x, y, fit.theta_hat + 1.0)
        assert abs(mean) > 1e-8
        assert np.isfinite(z) and z != 0.0

    def test_matches_double_loop_oracle(self):
        a, x, y = _random_problem(22, n=10)
        grm = _grm_from_dense(a)
        theta = 0.25
        mean, z = moment_diagnostic(grm, x, y, theta)
        xc = x - x.mean()
        yc = y - y.mean()
        av, pv, qv = _pair_table(a, xc, yc)
        ev = qv - theta * pv
        tv = (av - av.mean()) * (ev - ev.mean())
        np.testing.assert_allclose(mean, tv.mean(), rtol=1e-10, atol=1e-14)
        want_z = tv.mean() / np.sqrt(np.var(tv, ddof=1) / tv.size)
        np.testing.assert_allclose(z, want_z, rtol=1e-10)

    def test_two_individuals_single_pair(self):
        # one pair only: variance over pairs is undefined, z degrades to 0
        a = np.array([[1.0, 0.3], [0.3, 1.0]])
        grm = _grm_from_dense(a)
        mean, z = moment_diagnostic(
            grm, np.array([1.0, -1.0]), np.array([0.5, -0.5]), 0.0
        )
        assert math.isfinite(mean)
        assert z == 0.0 or math.isinf(z)

    def test_genotypes_rejected_before_any_work(self, rng):
        # tsre_estimate and pair_moments take genotypes; the diagnostic needs
        # the GRM entries and says how to build them
        std = random_standardized(rng, 50, 20)
        x = rng.normal(size=50)
        with pytest.raises(TypeError, match="Grm.*compute_grm"):
            moment_diagnostic(std, x, 0.3 * x + rng.normal(size=50), 0.3)


# hypothesis strategies: modest sizes, well-conditioned values
_floats = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)


@st.composite
def _problems(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 3))
    a = z @ z.T / 3
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    # keep problems that clear the weak-signal guard with margin
    av, pv, _ = _pair_table(a, x - x.mean(), y - y.mean())
    den = np.sum((av - av.mean()) * (pv - pv.mean()))
    lim = 1e-3 * np.sqrt(np.sum((av - av.mean()) ** 2) * np.sum((pv - pv.mean()) ** 2))
    if abs(den) <= lim:
        # resample deterministically rather than rejecting the example
        x = x + np.linspace(1.0, 2.0, n) * np.sign(den if den != 0 else 1.0)
    return a, x, y


@settings(max_examples=40, deadline=None)
@given(_problems(), _floats, _floats)
def test_property_translation_invariance(problem, dx, dy):
    a, x, y = problem
    grm = _grm_from_dense(a)
    try:
        base = tsre_estimate(grm, x, y)
    except EstimationError:
        return
    moved = tsre_estimate(grm, x + dx, y + dy)
    np.testing.assert_allclose(moved.theta_hat, base.theta_hat, rtol=1e-6, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(_problems(), st.floats(min_value=0.1, max_value=8.0, allow_nan=False))
def test_property_outcome_scaling(problem, s):
    a, x, y = problem
    grm = _grm_from_dense(a)
    try:
        base = tsre_estimate(grm, x, y)
    except EstimationError:
        return
    scaled = tsre_estimate(grm, x, s * y)
    np.testing.assert_allclose(scaled.theta_hat, s * base.theta_hat, rtol=1e-8)


@settings(max_examples=40, deadline=None)
@given(_problems())
def test_property_diagnostic_vanishes_at_fit(problem):
    a, x, y = problem
    grm = _grm_from_dense(a)
    try:
        fit = tsre_estimate(grm, x, y)
    except EstimationError:
        return
    mean, _ = moment_diagnostic(grm, x, y, fit.theta_hat)
    # the cross-pair slope of the fit scales the bound
    pm = pair_moments(grm, x - x.mean(), y - y.mean())
    av, _, _ = _pair_table(a, x, y)
    s_aa = np.sum(av * av)
    delta = (pm.s_axy - pm.s_a * pm.s_xy / pm.n_pairs) / (s_aa - pm.s_a**2 / pm.n_pairs)
    # normal equation: the centered moment at theta_hat is identically zero
    assert abs(mean) < 1e-10 * max(1.0, abs(delta))
