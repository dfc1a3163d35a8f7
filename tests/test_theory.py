"""Closed-form bias and variance formulas: hand cases and invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsre.errors import ConfigError, EstimationError
from tsre.simulate import ScenarioConfig, sample_effects
from tsre.theory import (
    MomentParams,
    asymptotic_var_tsre,
    bias_egger,
    bias_ivw,
    bias_tsre,
    moments_from_config,
)


def _params(**kw):
    base = dict(
        m_a=0,
        m_b=60,
        m_c=20,
        m_d=0,
        e_bb2=0.0025,
        e_bc2=0.0125,
        e_ac2=0.0025,
        e_ad2=0.0,
        e_bcac=0.0015,
        e_bc=0.1,
        e_ac=0.0,
        var_beta=0.004375,
        sigma2_ex=2.0,
        sigma2_ey=2.0,
        n=300,
    )
    base.update(kw)
    return MomentParams(**base)


class TestMomentParams:
    def test_validation_rejects_negative_counts(self):
        with pytest.raises(ConfigError):
            _params(m_b=-1)

    def test_validation_rejects_negative_second_moment(self):
        with pytest.raises(ConfigError):
            _params(e_bb2=-0.1)

    def test_cross_moment_cauchy_schwarz(self):
        with pytest.raises(ConfigError, match="Cauchy-Schwarz"):
            _params(e_bcac=1.0)

    def test_cross_moment_zero_when_marginals_vanish(self):
        with pytest.raises(ConfigError):
            _params(e_bc2=0.0, e_ac2=0.0, e_bcac=0.01)
        _params(e_bc2=0.0, e_ac2=0.0, e_bcac=0.0, var_beta=0.0)  # fine

    def test_total_count(self):
        assert _params(m_a=5, m_d=3).m_total == 88


class TestBiasFormulas:
    def test_hand_computed_case(self):
        # num = 20 * 0.0015 = 0.03; den = 60*0.0025 + 20*0.0125 = 0.4
        p = _params()
        assert bias_tsre(p) == pytest.approx(0.075)
        assert bias_ivw(p) == pytest.approx(0.075)
        # egger: (20/80) * (0.0015 - 0.1*0) / 0.004375
        assert bias_egger(p) == pytest.approx(0.25 * 0.0015 / 0.004375)

    def test_no_pleiotropy_means_no_bias(self):
        p = _params(e_bcac=0.0)
        assert bias_tsre(p) == 0.0
        assert bias_ivw(p) == 0.0
        assert bias_egger(p) == 0.0

    def test_egger_drops_mean_by_mean_part(self):
        # balanced covariance-free pleiotropy with nonzero means: the
        # intercept absorbs e_bc * e_ac and Egger is unbiased
        p = _params(e_ac=0.1, e_ac2=0.0125, e_bcac=0.1 * 0.1)
        assert bias_egger(p) == pytest.approx(0.0)
        assert bias_tsre(p) > 0.0

    def test_zero_genetic_signal_is_an_error(self):
        p = _params(m_b=0, m_c=0, e_bcac=0.0)
        with pytest.raises(EstimationError):
            bias_tsre(p)

    def test_egger_needs_effect_variance(self):
        p = _params(var_beta=0.0)
        with pytest.raises(EstimationError):
            bias_egger(p)

    def test_bias_invariant_to_common_moment_rescaling(self):
        p = _params()
        kappa = 3.7
        q = _params(
            e_bb2=p.e_bb2 * kappa,
            e_bc2=p.e_bc2 * kappa,
            e_ac2=p.e_ac2 * kappa,
            e_bcac=p.e_bcac * kappa,
            e_bc=p.e_bc * np.sqrt(kappa),
            e_ac=0.0,
            var_beta=p.var_beta * kappa,
        )
        assert bias_tsre(q) == pytest.approx(bias_tsre(p))
        assert bias_egger(q) == pytest.approx(bias_egger(p))


class TestAsymptoticVariance:
    def test_hand_computed_case(self):
        p = _params()
        tau2, var_theta = asymptotic_var_tsre(p)
        # M=80, var_x = 0.4 + 2 = 2.4, var_direct = 20*0.0025 + 2 = 2.05
        assert tau2 == pytest.approx(80 * 2.4 * 2.05 / 0.16)
        assert var_theta == pytest.approx(2 * tau2 / (300 * 299))

    def test_monotone_in_exposure_noise(self):
        lo = asymptotic_var_tsre(_params(sigma2_ex=1.0))[0]
        hi = asymptotic_var_tsre(_params(sigma2_ex=3.0))[0]
        assert hi > lo

    def test_monotone_in_null_variant_count(self):
        lo = asymptotic_var_tsre(_params(m_a=0))[0]
        hi = asymptotic_var_tsre(_params(m_a=1000))[0]
        assert hi > lo

    def test_sample_size_only_scales_var_theta(self):
        small = asymptotic_var_tsre(_params(n=100))
        big = asymptotic_var_tsre(_params(n=1000))
        assert small[0] == big[0]
        assert small[1] > big[1]

    def test_needs_two_individuals(self):
        with pytest.raises(ConfigError):
            asymptotic_var_tsre(_params(n=1))


class TestMomentsFromConfig:
    def test_round_trip_of_simple_config(self):
        cfg = ScenarioConfig(
            n=300,
            m_b=60,
            m_c=20,
            sigma_gb=0.05,
            mu_gc_x=0.1,
            sigma_gc_x=0.05,
            sigma_gc_y=0.05,
            rho_gc=0.6,
            sigma2_ex=2.0,
            sigma2_ey=2.0,
            theta=0.3,
        )
        p = moments_from_config(cfg)
        assert p.e_bb2 == pytest.approx(0.0025)
        assert p.e_bc2 == pytest.approx(0.0125)
        assert p.e_bcac == pytest.approx(0.6 * 0.05 * 0.05)
        assert p.e_bc == pytest.approx(0.1)
        # pooled Var(beta): mean = 20*0.1/80, second = (60*.0025+20*.0125)/80
        mean = 0.025
        second = 0.005
        assert p.var_beta == pytest.approx(second - mean**2)

    def test_pooled_variance_against_effect_sampling(self):
        # "b" keeps the strong mixture mean of group b checked through var_beta
        for strong_groups in ("bc", "b"):
            cfg = ScenarioConfig(
                n=100,
                m_b=500,
                m_c=400,
                sigma_gb=0.07,
                mu_gb=0.02,
                mu_gc_x=0.1,
                sigma_gc_x=0.05,
                sigma_gc_y=0.06,
                rho_gc=0.5,
                p_strong=0.25,
                mu_strong=0.3,
                sigma_strong=0.04,
                strong_groups=strong_groups,
            )
            p = moments_from_config(cfg)
            rng = np.random.default_rng(8)
            pooled = []
            cross = []
            for _ in range(800):
                eff = sample_effects(cfg, rng)
                pooled.append(np.concatenate([eff.beta_b, eff.beta_c]))
                cross.append(np.mean(eff.beta_c * eff.alpha_c))
            allb = np.concatenate(pooled)
            # population variance of the pooled exposure effects
            assert abs(allb.var() - p.var_beta) < 5e-4, strong_groups
            assert abs(np.mean(cross) - p.e_bcac) < 5e-4, strong_groups

    def test_invalid_config_propagates(self):
        with pytest.raises(ConfigError):
            moments_from_config(ScenarioConfig(n=1, m_b=10))


# random scenario generator for formula-level consistency properties
@st.composite
def _configs(draw):
    return ScenarioConfig(
        n=draw(st.integers(10, 5000)),
        m_a=draw(st.integers(0, 50)),
        m_b=draw(st.integers(1, 50)),
        m_c=draw(st.integers(1, 50)),
        m_d=draw(st.integers(0, 50)),
        mu_gb=draw(st.floats(-0.2, 0.2)),
        sigma_gb=draw(st.floats(0.01, 0.2)),
        mu_gc_x=draw(st.floats(-0.2, 0.2)),
        sigma_gc_x=draw(st.floats(0.01, 0.2)),
        mu_gc_y=draw(st.floats(-0.2, 0.2)),
        sigma_gc_y=draw(st.floats(0.01, 0.2)),
        rho_gc=draw(st.floats(-0.95, 0.95)),
        sigma2_ex=draw(st.floats(0.1, 3.0)),
        sigma2_ey=draw(st.floats(0.1, 3.0)),
        theta=draw(st.floats(-1.0, 1.0)),
    )


@settings(max_examples=50, deadline=None)
@given(_configs())
def test_property_tsre_and_ivw_bias_agree(cfg):
    p = moments_from_config(cfg)
    assert bias_tsre(p) == bias_ivw(p)


@settings(max_examples=50, deadline=None)
@given(_configs())
def test_property_moments_satisfy_cauchy_schwarz(cfg):
    # the analytic moment map must always produce a feasible MomentParams
    p = moments_from_config(cfg)
    assert abs(p.e_bcac) <= np.sqrt(p.e_bc2 * p.e_ac2) + 1e-12
    assert p.var_beta >= -1e-12


@settings(max_examples=50, deadline=None)
@given(_configs(), st.integers(1, 10000))
def test_property_null_variants_inflate_variance_linearly(cfg, extra):
    base = asymptotic_var_tsre(moments_from_config(cfg))[0]
    more = asymptotic_var_tsre(moments_from_config(cfg.replace(m_a=cfg.m_a + extra)))[0]
    # tau2 is proportional to total variant count, all else equal
    assert more == pytest.approx(base * (cfg.m_total + extra) / cfg.m_total)
