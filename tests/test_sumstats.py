"""Per-variant regression against an explicit OLS oracle, plus selection."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import stdtr

from tsre import sumstats
from tsre.errors import DataError, EstimationError, centre_traits
from tsre.sumstats import (
    SUMMARY_DTYPE,
    per_variant_regression,
    select_by_pvalue,
    select_top_k,
)

from conftest import random_standardized


def _ols_with_intercept(g, trait):
    """Slope, se, and p-value of trait ~ 1 + g via the normal equations."""
    n = g.size
    design = np.column_stack([np.ones(n), g])
    coef, *_ = np.linalg.lstsq(design, trait, rcond=None)
    resid = trait - design @ coef
    sigma2 = resid @ resid / (n - 2)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(cov[1, 1])
    t = abs(coef[1]) / se
    return coef[1], se, 2 * stats.t.sf(t, df=n - 2)


class TestPerVariantRegression:
    def test_matches_intercept_ols_oracle(self, rng):
        std = random_standardized(rng, 35, 6)
        x = rng.normal(size=35)
        y = 0.4 * x + rng.normal(size=35)
        summ = per_variant_regression(std, x, y)
        for k, s in enumerate(summ):
            g = std.values[:, k]
            bx, se_x, px = _ols_with_intercept(g, x)
            by, se_y, _ = _ols_with_intercept(g, y)
            assert abs(s.gamma_x - bx) < 1e-10
            assert abs(s.gamma_y - by) < 1e-10
            assert abs(s.se_x - se_x) < 1e-10
            assert abs(s.se_y - se_y) < 1e-10
            assert abs(s.p_x - px) < 1e-10

    def test_returns_a_record_array(self, rng):
        std = random_standardized(rng, 20, 4)
        summ = per_variant_regression(std, rng.normal(size=20), rng.normal(size=20))
        assert isinstance(summ, np.recarray)
        assert summ.dtype == np.dtype((np.record, SUMMARY_DTYPE))
        assert summ.shape == (4,)
        assert summ[0].variant_id == "v0"
        assert summ[2].gamma_x == summ["gamma_x"][2]

    def test_records_match_a_fromarrays_reference(self, rng):
        # _records fills np.zeros in place of np.rec.fromarrays, whose
        # np.empty initialises the object field one slot at a time; the
        # reference is that construction, bit for bit, ids ending in NUL kept
        std = random_standardized(rng, 30, 5)
        z = std.values
        xc, yc = centre_traits(30, rng.normal(size=30), rng.normal(size=30))
        ids = ["v0", "rs1\x00", "", "\x00\x00", "v4"]
        gram, u, v = np.einsum("ij,ij->j", z, z), z.T @ xc, z.T @ yc
        u[1] = 0.0  # a zero slope
        got = sumstats._records(ids, gram, u, v, xc, yc)
        gx, se_x = sumstats._marginal(u, gram, xc, 30)
        gy, se_y = sumstats._marginal(v, gram, yc, 30)
        p_x = 2.0 * stdtr(28, -np.abs(gx) / se_x)
        want = np.rec.fromarrays(
            [np.array(ids, dtype=object), gx, se_x, gy, se_y, p_x], dtype=SUMMARY_DTYPE
        )
        assert isinstance(got, np.recarray)
        assert got.dtype == want.dtype
        assert got.variant_id.tolist() == ids
        for name in SUMMARY_DTYPE.names[1:]:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_ids_follow_input_order(self, rng):
        std = random_standardized(rng, 20, 4)
        summ = per_variant_regression(std, rng.normal(size=20), rng.normal(size=20))
        assert [s.variant_id for s in summ] == std.variant_ids

    def test_constant_trait_rejected(self, rng):
        std = random_standardized(rng, 20, 3)
        for flat in (np.zeros(20), np.full(20, 0.1)):
            with pytest.raises(EstimationError, match="exposure does not vary"):
                per_variant_regression(std, flat, rng.normal(size=20))
            with pytest.raises(EstimationError, match="outcome does not vary"):
                per_variant_regression(std, rng.normal(size=20), flat)

    def test_too_few_individuals(self, rng):
        std = random_standardized(rng, 20, 3)
        small = type(std)(values=std.values[:2], variant_ids=std.variant_ids)
        with pytest.raises(EstimationError):
            per_variant_regression(small, np.zeros(2), np.zeros(2))

    def test_shape_mismatch(self, rng):
        std = random_standardized(rng, 20, 3)
        with pytest.raises(DataError, match="length mismatch"):
            per_variant_regression(std, np.zeros(19), np.zeros(20))
        for bad in (np.nan, np.inf):
            x = rng.normal(size=20)
            x[3] = bad
            with pytest.raises(DataError, match="finite"):
                per_variant_regression(std, x, rng.normal(size=20))
            with pytest.raises(DataError, match="finite"):
                per_variant_regression(std, rng.normal(size=20), x)


def _summaries(p, gx=None):
    """A summary record array with exposure p-values p and effects gx (default 1)."""
    gx = [1.0] * len(p) if gx is None else gx
    return np.rec.fromrecords(
        [(f"v{k}", g, 0.1, 0.5, 0.1, pk) for k, (g, pk) in enumerate(zip(gx, p))],
        dtype=SUMMARY_DTYPE,
    )


class TestSelection:
    def test_top_k_orders_by_pvalue(self):
        summ = _summaries([0.5, 0.01, 0.2])
        assert select_top_k(summ, 2) == [1, 2]
        # a list of the rows selects the same
        assert select_top_k(list(summ), 2) == [1, 2]

    def test_top_k_tie_breaks_by_effect_size_then_index(self):
        summ = _summaries([0.1, 0.1, 0.1], gx=[0.5, -2.0, 0.5])
        assert select_top_k(summ, 1) == [1]
        assert select_top_k(summ, 2) == [1, 0]

    def test_top_k_oversized_request_warns_and_returns_all(self):
        summ = _summaries([0.5, 0.01])
        with pytest.warns(UserWarning, match="only 2"):
            got = select_top_k(summ, 5)
        assert sorted(got) == [0, 1]

    def test_top_k_argument_validation(self):
        with pytest.raises(DataError):
            select_top_k([], 1)
        with pytest.raises(DataError):
            select_top_k(_summaries([0.5])[:0], 1)
        with pytest.raises(DataError):
            select_top_k(_summaries([0.5]), 0)

    def test_pvalue_selection_keeps_original_order(self):
        summ = _summaries([0.001, 0.9, 0.003])
        assert select_by_pvalue(summ, 0.01) == [0, 2]
        assert select_by_pvalue(summ, 1.0) == [0, 1, 2]
        assert select_by_pvalue(list(summ), 0.01) == [0, 2]

    def test_pvalue_threshold_validation(self):
        summ = _summaries([0.5])
        with pytest.raises(DataError):
            select_by_pvalue(summ, 0.0)
        with pytest.raises(DataError):
            select_by_pvalue(summ, 1.5)
        with pytest.raises(DataError):
            select_by_pvalue([], 0.05)
        with pytest.raises(DataError):
            select_by_pvalue(summ[:0], 0.05)

    def test_threshold_is_strict(self):
        summ = _summaries([0.05, 0.049])
        assert select_by_pvalue(summ, 0.05) == [1]
