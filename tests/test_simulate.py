"""Scenario configuration, effect sampling, and phenotype generation."""

import re
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from tsre.errors import ConfigError, DataError
from tsre.genotype import simulate_genotypes, standardize
from tsre.simulate import (
    ScenarioConfig,
    generate_phenotypes,
    group_layout,
    load_scenario,
    sample_effects,
)
from tsre.theory import heritability, moments_from_config

from conftest import write_scenario


def _cfg(**kw):
    base = dict(
        n=200,
        m_a=5,
        m_b=40,
        m_c=30,
        m_d=10,
        sigma_gb=0.1,
        mu_gc_x=0.05,
        sigma_gc_x=0.08,
        mu_gc_y=0.02,
        sigma_gc_y=0.07,
        rho_gc=0.6,
        mu_gd=0.01,
        sigma_gd=0.04,
        theta=0.3,
        sigma2_ex=1.5,
        sigma2_ey=2.0,
        seed=3,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def _by_group(cfg, eff):
    """Group slices (beta_b, beta_c, alpha_c, alpha_d) of the effect vectors."""
    b, c, d = (slice(*group_layout(cfg)[g]) for g in "bcd")
    return eff.beta[b], eff.beta[c], eff.alpha[c], eff.alpha[d]


class TestScenarioConfig:
    def test_group_layout_edges(self):
        cfg = _cfg()
        layout = group_layout(cfg)
        assert layout == {"a": (0, 5), "b": (5, 45), "c": (45, 75), "d": (75, 85)}
        assert cfg.m_total == 85

    def test_replace_returns_validated_copy(self):
        cfg = _cfg()
        other = cfg.replace(theta=0.0, m_a=0)
        assert other.theta == 0.0 and other.m_a == 0
        assert cfg.theta == 0.3
        with pytest.raises(ConfigError):
            cfg.replace(rho_gc=1.5)

    def test_checked_when_built(self):
        with pytest.raises(ConfigError, match="n must be at least 2"):
            ScenarioConfig(n=1, m_b=1)

    def test_fields_cannot_be_assigned(self):
        cfg = _cfg()
        with pytest.raises(FrozenInstanceError):
            cfg.rho_gc = 7.0
        assert cfg.rho_gc == 0.6

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n=1),
            dict(m_b=-1),
            dict(m_a=0, m_b=0, m_c=0, m_d=0),
            dict(sigma_gb=-0.1),
            dict(rho_gc=-1.01),
            dict(rho_e=2.0),
            dict(p_strong=1.5),
            dict(sigma2_ex=-1.0),
            dict(maf_low=0.0),
            dict(maf_low=0.5, maf_high=0.4),
            dict(strong_groups="bd"),
            dict(sigma_gb=float("nan")),
            dict(theta=float("inf")),
            dict(sigma2_ex=float("inf")),
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ConfigError):
            _cfg(**bad).validate()


class TestSampleEffects:
    def test_shapes_and_determinism(self):
        cfg = _cfg()
        a = sample_effects(cfg, np.random.default_rng(9))
        b = sample_effects(cfg, np.random.default_rng(9))
        assert a.beta.shape == a.alpha.shape == (85,)
        assert a.beta.dtype == a.alpha.dtype == np.float64
        assert [v.shape for v in _by_group(cfg, a)] == [(40,), (30,), (30,), (10,)]
        assert np.array_equal(a.beta, b.beta) and np.array_equal(a.alpha, b.alpha)
        # exposure effects live on groups b and c, direct outcome effects on c and d
        lay = group_layout(cfg)
        for vec, groups in ((a.beta, "ad"), (a.alpha, "ab")):
            for g in groups:
                assert not vec[slice(*lay[g])].any(), g

    def test_effect_moments(self):
        # one large draw; sample moments should sit near the population ones
        cfg = _cfg(m_b=60000, m_c=60000, m_d=60000)
        eff = sample_effects(cfg, np.random.default_rng(11))
        beta_b, beta_c, alpha_c, _ = _by_group(cfg, eff)
        assert abs(beta_b.mean() - cfg.mu_gb) < 3e-3
        assert abs(beta_b.std() - cfg.sigma_gb) < 3e-3
        assert abs(beta_c.mean() - cfg.mu_gc_x) < 3e-3
        assert abs(alpha_c.mean() - cfg.mu_gc_y) < 3e-3
        corr = np.corrcoef(beta_c, alpha_c)[0, 1]
        assert abs(corr - cfg.rho_gc) < 0.02

    def test_strong_replacement_count_and_values(self):
        cfg = _cfg(
            m_b=50,
            m_c=40,
            p_strong=0.2,
            mu_strong=5.0,
            sigma_strong=0.0,
            strong_groups="bc",
        )
        beta_b, beta_c, _, _ = _by_group(cfg, sample_effects(cfg, np.random.default_rng(2)))
        # sigma_strong = 0 puts every strong effect exactly at mu_strong
        strong_b = beta_b == 5.0
        assert strong_b.sum() == 10
        assert (beta_c == 5.0).sum() == 8
        assert np.all(np.abs(beta_b[~strong_b]) < 1.0)

    def test_strong_groups_restricts_replacement(self):
        cfg = _cfg(p_strong=0.5, mu_strong=5.0, sigma_strong=0.0, strong_groups="c")
        beta_b, beta_c, _, _ = _by_group(cfg, sample_effects(cfg, np.random.default_rng(4)))
        assert (beta_b == 5.0).sum() == 0
        assert (beta_c == 5.0).sum() == 15

    def test_no_strong_when_p_zero(self):
        eff = sample_effects(_cfg(mu_strong=5.0), np.random.default_rng(0))
        assert (eff.beta == 5.0).sum() == 0


class TestGeneratePhenotypes:
    def _std(self, cfg, seed=0):
        gm = simulate_genotypes(
            cfg.n, cfg.m_total, cfg.maf_low, cfg.maf_high, np.random.default_rng(seed)
        )
        return standardize(gm)

    def test_noise_free_construction_is_exact(self):
        # with zero residual variance the phenotypes are linear in genotype
        cfg = _cfg(sigma2_ex=0.0, sigma2_ey=0.0)
        std = self._std(cfg)
        rng = np.random.default_rng(8)
        eff = sample_effects(cfg, rng)
        ph = generate_phenotypes(std, eff, cfg, rng)
        # the model itself: X = Z beta, Y = theta X + Z alpha
        want_x = std.values @ eff.beta
        want_y = cfg.theta * want_x + std.values @ eff.alpha
        np.testing.assert_allclose(ph.x, want_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ph.y, want_y, rtol=1e-12, atol=1e-12)

    def test_residual_correlation(self):
        # no genetics at all: x and y residuals should correlate at rho_e
        cfg = ScenarioConfig(
            n=60000, m_a=1, sigma2_ex=1.0, sigma2_ey=1.0, rho_e=0.8, theta=0.0
        )
        std = self._std(cfg)
        rng = np.random.default_rng(13)
        eff = sample_effects(cfg, rng)
        ph = generate_phenotypes(std, eff, cfg, rng)
        assert abs(np.corrcoef(ph.x, ph.y)[0, 1] - 0.8) < 0.01
        assert abs(ph.x.var() - 1.0) < 0.03
        assert abs(ph.y.var() - 1.0) < 0.03

    def test_column_count_mismatch_is_an_error(self):
        cfg = _cfg()
        std = self._std(cfg)
        trimmed = type(std)(
            values=std.values[:, :-1],
            variant_ids=std.variant_ids[:-1],
            dropped_variants=[],
        )
        rng = np.random.default_rng(0)
        eff = sample_effects(cfg, rng)
        with pytest.raises(DataError):
            generate_phenotypes(trimmed, eff, cfg, rng)


class TestMoments:
    def test_exposure_moments_against_sampling(self):
        # analytic map vs empirical moments of many effect draws
        cfg = _cfg(
            m_b=120,
            m_c=100,
            p_strong=0.2,
            mu_strong=0.3,
            sigma_strong=0.05,
            strong_groups="c",
        )
        reps = 4000
        rng = np.random.default_rng(17)
        bb2, bc, bc2, ac, ac2, ad2, bcac = [], [], [], [], [], [], []
        for _ in range(reps):
            beta_b, beta_c, alpha_c, alpha_d = _by_group(cfg, sample_effects(cfg, rng))
            bb2.append(np.mean(beta_b**2))
            bc.append(beta_c.mean())
            bc2.append(np.mean(beta_c**2))
            ac.append(alpha_c.mean())
            ac2.append(np.mean(alpha_c**2))
            ad2.append(np.mean(alpha_d**2))
            bcac.append(np.mean(beta_c * alpha_c))
        mom = moments_from_config(cfg)
        assert abs(np.mean(bb2) - mom.e_bb2) < 5e-4
        assert abs(np.mean(bc) - mom.e_bc) < 5e-4
        assert abs(np.mean(bc2) - mom.e_bc2) < 5e-4
        assert abs(np.mean(ac) - mom.e_ac) < 5e-4
        assert abs(np.mean(ac2) - mom.e_ac2) < 5e-4
        assert abs(np.mean(ad2) - mom.e_ad2) < 5e-4
        assert abs(np.mean(bcac) - mom.e_bcac) < 5e-4

    def test_heritability_formula(self):
        cfg = _cfg(m_b=100, m_c=0, m_a=0, m_d=0, sigma_gb=0.1, mu_gb=0.0, sigma2_ex=1.0)
        # genetic variance = 100 * 0.01 = 1, so h2 = 1 / (1 + 1)
        assert abs(heritability(cfg) - 0.5) < 1e-12

    def test_heritability_rejects_invalid_config(self):
        with pytest.raises(ConfigError, match="n must be at least 2"):
            heritability(ScenarioConfig(n=1, m_b=10, sigma_gb=0.1))

    def test_heritability_without_genetic_groups_is_zero(self):
        # null and outcome-only variants explain none of the exposure
        cfg = ScenarioConfig(m_a=10, m_d=5, sigma_gd=0.1, sigma2_ex=1.0)
        assert heritability(cfg) == 0.0

    def test_empirical_exposure_variance(self):
        cfg = _cfg(n=40000, m_a=0, m_b=50, m_c=0, m_d=0, sigma_gb=0.1, sigma2_ex=1.0)
        gm = simulate_genotypes(
            cfg.n, cfg.m_total, cfg.maf_low, cfg.maf_high, np.random.default_rng(5)
        )
        std = standardize(gm)
        rng = np.random.default_rng(6)
        eff = sample_effects(cfg, rng)
        ph = generate_phenotypes(std, eff, cfg, rng)
        # realized genetic variance given the drawn betas, plus noise
        expected = np.sum(eff.beta**2) + cfg.sigma2_ex
        assert abs(ph.x.var() / expected - 1.0) < 0.05


class TestScenarioIO:
    def test_round_trip(self, tmp_path):
        cfg = _cfg(p_strong=0.2, mu_strong=0.2, sigma_strong=0.05, strong_groups="c")
        path = tmp_path / "scenario.cfg"
        write_scenario(cfg, path)
        loaded = load_scenario(path)
        assert loaded == cfg
        for f in fields(ScenarioConfig):
            assert type(getattr(loaded, f.name)) is type(getattr(cfg, f.name)), f.name

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("# comment\n\nn = 50\nm_b = 3\nsigma_gb = 0.1\n")
        cfg = load_scenario(path)
        assert cfg.n == 50 and cfg.m_b == 3 and cfg.sigma_gb == 0.1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("n = 50\nm_b = 3\nbogus = 1\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_scenario(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("n = fifty\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_scenario(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("n = 100\nm_b = 3\nn = 50\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_scenario(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("n 50\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_scenario(path)

    @pytest.mark.parametrize("line", ["rho_gc = 7", "sigma_gb = nan", "theta = inf"])
    def test_invalid_config_rejected_on_load(self, tmp_path, line):
        path = tmp_path / "s.cfg"
        path.write_text(f"n = 50\nm_b = 3\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_scenario(path)
