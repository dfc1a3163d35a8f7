"""Closed-form asymptotic bias and variance of the estimators.

These are pure-arithmetic population formulas, parameterized by the effect
moments of the four variant groups.  They double as independent oracles for
the Monte-Carlo harness and as a quick power calculator.  This module is the
one place that turns a `ScenarioConfig` into population quantities: the
effect moments (`moments_from_config`) and the heritability of the exposure.
`tsre.simulate` only draws effects and phenotypes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, EstimationError
from .simulate import ScenarioConfig

__all__ = [
    "MomentParams",
    "moments_from_config",
    "heritability",
    "bias_tsre",
    "bias_ivw",
    "bias_egger",
    "asymptotic_var_tsre",
]


@dataclass(frozen=True)
class MomentParams:
    """Effect moments consumed by the closed forms.

    E(. | g) is a mean over the variants of group g.  Moments are raw (not
    central): e_bb2 = E(beta^2 | b) and so on; e_bcac = E(beta * alpha | c);
    e_bc and e_ac are the first moments of the group-c effects; var_beta
    pools groups b and c into one exposure-effect population.
    """

    m_a: int
    m_b: int
    m_c: int
    m_d: int
    e_bb2: float
    e_bc2: float
    e_ac2: float
    e_ad2: float
    e_bcac: float
    e_bc: float
    e_ac: float
    var_beta: float
    sigma2_ex: float
    sigma2_ey: float
    n: int

    def __post_init__(self):
        for name in ("m_a", "m_b", "m_c", "m_d"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in ("e_bb2", "e_bc2", "e_ac2", "e_ad2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} is a second moment and must be non-negative")
        tol = 1e-12
        if self.e_bc2 > 0 or self.e_ac2 > 0:
            bound = (self.e_bc2 * self.e_ac2) ** 0.5
            if abs(self.e_bcac) > bound + tol:
                raise ConfigError(
                    f"e_bcac={self.e_bcac} violates the Cauchy-Schwarz bound {bound}"
                )
        elif self.e_bcac != 0:
            raise ConfigError("e_bcac must be zero when either second moment is zero")

    @property
    def m_total(self) -> int:
        return self.m_a + self.m_b + self.m_c + self.m_d


def moments_from_config(cfg: ScenarioConfig) -> MomentParams:
    """Translate a simulation scenario into the population effect moments.

    The strong/weak mixture enters both the exposure-effect moments and the
    pooled Var(beta); the strong replacement draws are independent of
    alpha, so they contribute mu_strong * E(alpha | c) to the cross moment.
    """
    p = cfg.p_strong

    def mix(weak, strong, group):
        # a fraction p of the group's exposure effects is drawn strong
        if p > 0 and group in cfg.strong_groups:
            return (1 - p) * weak + p * strong
        return weak

    strong2 = cfg.mu_strong**2 + cfg.sigma_strong**2
    e_bb = mix(cfg.mu_gb, cfg.mu_strong, "b")
    e_bc = mix(cfg.mu_gc_x, cfg.mu_strong, "c")
    e_bb2 = mix(cfg.mu_gb**2 + cfg.sigma_gb**2, strong2, "b")
    e_bc2 = mix(cfg.mu_gc_x**2 + cfg.sigma_gc_x**2, strong2, "c")
    weak_cross = cfg.rho_gc * cfg.sigma_gc_x * cfg.sigma_gc_y + cfg.mu_gc_x * cfg.mu_gc_y
    if p > 0 and "c" in cfg.strong_groups:
        # not mix(): p * (mu_strong * mu_gc_y) would round differently
        e_bcac = (1 - p) * weak_cross + p * cfg.mu_strong * cfg.mu_gc_y
    else:
        e_bcac = weak_cross
    m_bc = cfg.m_b + cfg.m_c
    if m_bc > 0:
        mean_beta = (cfg.m_b * e_bb + cfg.m_c * e_bc) / m_bc
        second_beta = (cfg.m_b * e_bb2 + cfg.m_c * e_bc2) / m_bc
        var_beta = second_beta - mean_beta**2
    else:
        var_beta = 0.0
    return MomentParams(
        m_a=cfg.m_a,
        m_b=cfg.m_b,
        m_c=cfg.m_c,
        m_d=cfg.m_d,
        e_bb2=e_bb2,
        e_bc2=e_bc2,
        e_ac2=cfg.mu_gc_y**2 + cfg.sigma_gc_y**2,
        e_ad2=cfg.mu_gd**2 + cfg.sigma_gd**2,
        e_bcac=e_bcac,
        e_bc=e_bc,
        e_ac=cfg.mu_gc_y,
        var_beta=var_beta,
        sigma2_ex=cfg.sigma2_ex,
        sigma2_ey=cfg.sigma2_ey,
        n=cfg.n,
    )


def _genetic_variance(p: MomentParams) -> float:
    """Genetic part of Var(X): m_b*E(beta^2 | b) + m_c*E(beta^2 | c)."""
    return p.m_b * p.e_bb2 + p.m_c * p.e_bc2


def _genetic_denominator(p: MomentParams) -> float:
    den = _genetic_variance(p)
    if den <= 0:
        raise EstimationError(
            "no genetic signal: m_b*E(beta^2 | b) + m_c*E(beta^2 | c) is zero"
        )
    return den


def heritability(cfg: ScenarioConfig) -> float:
    """Fraction of exposure variance explained by genetics."""
    genetic = _genetic_variance(moments_from_config(cfg))
    total = genetic + cfg.sigma2_ex
    if total <= 0:
        raise EstimationError("heritability undefined: total exposure variance is zero")
    return genetic / total


def bias_tsre(p: MomentParams) -> float:
    """Asymptotic bias of the pair-regression ratio estimator."""
    return p.m_c * p.e_bcac / _genetic_denominator(p)


def bias_ivw(p: MomentParams) -> float:
    """Asymptotic bias of IVW on all instruments; equals bias_tsre."""
    return bias_tsre(p)


def bias_egger(p: MomentParams) -> float:
    """Asymptotic bias of Egger regression on all instruments.

    Only the covariance part of the cross moment survives because the
    intercept absorbs the mean direct effect.
    """
    if p.var_beta <= 0:
        raise EstimationError(
            "Egger bias undefined: pooled Var(beta) over groups b and c is zero"
        )
    m = p.m_total
    if m == 0:
        raise EstimationError("no variants")
    return (p.m_c / m) * (p.e_bcac - p.e_bc * p.e_ac) / p.var_beta


def asymptotic_var_tsre(p: MomentParams) -> tuple[float, float]:
    """Asymptotic variance scale tau2 and Var(theta_hat) = 2*tau2/(n(n-1)).

    tau2 = M * [total exposure variance] * [outcome residual variance]
           / [genetic exposure variance]^2
    where the bracketed quantities are m_b*E(beta^2 | b) + m_c*E(beta^2 | c)
    + sigma2_ex and m_c*E(alpha^2 | c) + m_d*E(alpha^2 | d) + sigma2_ey.
    """
    if p.n < 2:
        raise ConfigError("variance formula needs n >= 2")
    den = _genetic_denominator(p)
    var_x = den + p.sigma2_ex
    var_direct = p.m_c * p.e_ac2 + p.m_d * p.e_ad2 + p.sigma2_ey
    tau2 = p.m_total * var_x * var_direct / den**2
    var_theta = 2.0 * tau2 / (p.n * (p.n - 1))
    return tau2, var_theta
