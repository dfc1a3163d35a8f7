"""Pairwise second-moment engine against enumerating-all-pairs oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsre import engine, genotype
from tsre.engine import moment_diagnostic, tsre_estimate
from tsre.errors import DataError, EstimationError
from tsre.genotype import Grm, compute_grm, simulate_genotypes, standardize
from tsre.sumstats import _dosage_summaries

from conftest import dense_to_packed, packed_to_dense, random_genotypes, random_standardized


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
    # the pair sums of engine._grm_sums and engine._trait_sums, and the
    # input checks of the two public fits built on them
    def test_two_individual_worked_example(self):
        # one pair with A_12 = -1, x = (1, 2): s_axx = -1 * 1 * 2 = -2
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        x, y = np.array([1.0, 2.0]), np.array([0.0, 0.0])
        s_axx, _, s_a = engine._grm_sums(_grm_from_dense(a), x, y)
        npairs, s_xx, _, _ = engine._trait_sums(x, y)
        assert s_axx == -2.0
        assert s_a == -1.0
        assert npairs == 1
        assert s_xx == 2.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pair_enumeration(self, seed):
        a, x, y = _random_problem(seed)
        s_axx, s_axy, s_a = engine._grm_sums(_grm_from_dense(a), x, y)
        npairs, s_xx, s_xy, s_xx2 = engine._trait_sums(x, y)
        av, pv, qv = _pair_table(a, x, y)
        assert npairs == av.size
        np.testing.assert_allclose(s_axx, np.sum(av * pv), rtol=1e-12)
        np.testing.assert_allclose(s_axy, np.sum(av * qv), rtol=1e-12)
        np.testing.assert_allclose(s_a, av.sum(), rtol=1e-12)
        np.testing.assert_allclose(
            s_xx, sum(x[i] * x[j] for i in range(len(x)) for j in range(i)),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            s_xy,
            sum(
                (x[i] * y[j] + y[i] * x[j]) / 2
                for i in range(len(x))
                for j in range(i)
            ),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            s_xx2,
            sum((x[i] * x[j]) ** 2 for i in range(len(x)) for j in range(i)),
            rtol=1e-12,
        )

    def test_no_centering_applied(self):
        a, x, y = _random_problem(3, n=6)
        grm = _grm_from_dense(a)
        shifted = engine._grm_sums(grm, x + 10.0, y)
        plain = engine._grm_sums(grm, x, y)
        assert shifted[0] != pytest.approx(plain[0])
        assert engine._trait_sums(x + 10.0, y)[1] != pytest.approx(engine._trait_sums(x, y)[1])

    def test_length_mismatch(self, rng):
        a, x, y = _random_problem(0, n=5)
        grm = _grm_from_dense(a)
        gm = random_genotypes(rng, 5, 4)
        for source in (grm, gm):
            with pytest.raises(DataError, match="length mismatch"):
                tsre_estimate(source, x[:-1], y)
        with pytest.raises(DataError, match="length mismatch"):
            moment_diagnostic(grm, x[:-1], y, 0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phenotype_rejected(self, bad):
        a, x, y = _random_problem(2, n=5)
        x[3] = bad
        with pytest.raises(DataError, match="finite"):
            moment_diagnostic(_grm_from_dense(a), x, y, 0.3)
        with pytest.raises(DataError, match="finite"):
            tsre_estimate(_grm_from_dense(a), y, x)

    def test_single_individual_rejected(self, rng):
        a = np.array([[1.0]])
        with pytest.raises(DataError, match="at least 2 individuals"):
            moment_diagnostic(_grm_from_dense(a), np.array([1.0]), np.array([1.0]), 0.3)
        # the fit needs a third: genotypes give their sums through
        # per-variant regressions
        gm = random_genotypes(rng, 2, 5)
        with pytest.raises(DataError, match="at least 3 individuals"):
            tsre_estimate(gm, np.array([1.0, 2.0]), np.array([0.5, 0.0]))


# (n, seed, m): m None draws a dense symmetric normal matrix; otherwise the
# GRM of m simulated variants, whose pair sums are also taken from the
# summaries and row norms of the int8 dosages, for any m.  With
# m >> n that GRM is diagonal-dominant (off-diagonal entries ~ 1/sqrt(m)
# against a unit diagonal), as in the many-null-variant regime, so the pair
# sums are small differences of whole-triangle and diagonal terms.  The GRMs
# come from simulate_genotypes, the sampler the replicates use, so they have
# the allele frequencies (0.2-0.3) of the simulated rows; conftest.random_grm
# draws dosages 0, 1, 2 uniformly instead.
CASES = [
    (2, 0, None),
    (3, 1, None),
    (5, 2, None),
    (17, 3, None),
    (40, 4, None),
    (7, 5, None),
    (5, 6, 5000),
    (17, 7, 20000),
    (40, 8, 50000),
    (40, 9, 10),
    (60, 10, 1),
]


def _random_instance(n, seed, m):
    rng = np.random.default_rng(seed)
    gm = None
    if m is None:
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        grm = _grm_from_dense(a, m_effective=1)
    else:
        gm = simulate_genotypes(n, m, 0.2, 0.3, rng)
        grm = compute_grm(standardize(gm))
        a = packed_to_dense(grm.lower_triangle, n)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    return a, grm, x, y, gm


def _pair_sums_oracle(a, x, y):
    n = a.shape[0]
    s_axx = s_axy = s_a = 0.0
    for i in range(n):
        for j in range(i):
            s_a += a[i, j]
            s_axx += a[i, j] * x[i] * x[j]
            s_axy += a[i, j] * (x[i] * y[j] + y[i] * x[j]) / 2
    return s_axx, s_axy, s_a


def _diag_sums_oracle(a, x, y, theta, a_bar, e_bar):
    n = a.shape[0]
    s_t = s_tt = 0.0
    for i in range(n):
        for j in range(i):
            e = (x[i] * y[j] + y[i] * x[j]) / 2 - theta * x[i] * x[j]
            t = (a[i, j] - a_bar) * (e - e_bar)
            s_t += t
            s_tt += t * t
    return s_t, s_tt


@pytest.mark.parametrize("n,seed,m", CASES)
def test_pair_sums_matches_double_loop(n, seed, m, monkeypatch):
    a, grm, x, y, gm = _random_instance(n, seed, m)
    want = _pair_sums_oracle(a, x, y)
    sums = [engine._grm_sums(grm, x, y)]
    if gm is not None:
        # the summaries route of the genotypes: the int8 dosages read in
        # about three column blocks, as a replicate reads them
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", n * -(-m // 3))
        summaries, _, d = _dosage_summaries(gm, x, y)
        sums.append(engine._summary_sums(summaries, d, x, y))
    for got in sums:
        assert all(type(v) is float for v in got)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,seed,m", CASES)
def test_diag_sums_matches_double_loop(n, seed, m):
    a, grm, x, y, *_ = _random_instance(n, seed, m)
    theta, a_bar, e_bar = 0.37, 0.05, -0.2
    got = engine._diag_sums(grm, x, y, theta, a_bar, e_bar)
    want = _diag_sums_oracle(a, x, y, theta, a_bar, e_bar)
    assert all(type(v) is float for v in got)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_single_individual_has_no_pairs():
    grm = Grm(n=1, lower_triangle=np.array([1.0]), m_effective=1)
    x = np.array([2.0])
    assert engine._grm_sums(grm, x, x) == (0.0, 0.0, 0.0)
    assert engine._trait_sums(x, x) == (0, 0.0, 0.0, 0.0)


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
        # both shapes, m <= n and m > n: the int8 dosages read in several
        # blocks and fit from their per-variant summaries and row norms, as
        # a replicate fits them, against the dense GRM of the standardized
        # matrix
        monkeypatch.setattr(genotype, "_CHUNK_CELLS", 5 * n)
        rng = np.random.default_rng(n + m)
        gm = simulate_genotypes(n, m, 0.2, 0.3, rng)
        std = standardize(gm)
        grm = compute_grm(std)
        x = std.values @ rng.normal(0, 0.5, size=std.m) + rng.normal(size=n)
        y = 0.3 * x + rng.normal(size=n)
        via_grm = tsre_estimate(grm, x, y)
        direct = tsre_estimate(gm, x, y)
        summaries, _, d = _dosage_summaries(gm, x, y)
        assert direct == engine._summary_fit(summaries, d, x, y)
        np.testing.assert_allclose(direct.theta_hat, via_grm.theta_hat, rtol=1e-12)
        np.testing.assert_allclose(direct.se, via_grm.se, rtol=1e-12)
        assert direct.n_iv == via_grm.n_iv == std.m
        for source in (gm, grm):
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

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, theta):
        a, x, y = _random_problem(23, n=8)
        with pytest.raises(DataError, match="theta must be finite, got (nan|-?inf)"):
            moment_diagnostic(_grm_from_dense(a), x, y, theta)

    def test_overflowing_residual_moments_are_an_estimation_error(self):
        # every warning fails a test, so this also checks that NumPy's
        # overflow and invalid-value warnings stay inside the diagnostic
        a, x, y = _random_problem(23, n=8)
        with pytest.raises(EstimationError, match="overflow"):
            moment_diagnostic(_grm_from_dense(a), x, y, 1e300)

    def test_genotypes_rejected_before_any_work(self, rng):
        # tsre_estimate takes genotypes; the diagnostic needs the GRM
        # entries and says how to build them
        gm = random_genotypes(rng, 50, 20)
        x = rng.normal(size=50)
        with pytest.raises(TypeError, match="Grm.*compute_grm"):
            moment_diagnostic(gm, x, 0.3 * x + rng.normal(size=50), 0.3)


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
    xc, yc = x - x.mean(), y - y.mean()
    _, s_axy, s_a = engine._grm_sums(grm, xc, yc)
    npairs, _, s_xy, _ = engine._trait_sums(xc, yc)
    av, _, _ = _pair_table(a, x, y)
    s_aa = np.sum(av * av)
    delta = (s_axy - s_a * s_xy / npairs) / (s_aa - s_a**2 / npairs)
    # normal equation: the centered moment at theta_hat is identically zero
    assert abs(mean) < 1e-10 * max(1.0, abs(delta))
