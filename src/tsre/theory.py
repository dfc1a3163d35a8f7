"""Closed-form asymptotic bias and variance of the estimators.

These are pure-arithmetic population formulas, parameterized by the effect
moments of the four variant groups.  They double as independent oracles for
the Monte-Carlo harness and as a quick power calculator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, EstimationError
from .simulate import ScenarioConfig, exposure_moments

__all__ = [
    "MomentParams",
    "moments_from_config",
    "bias_tsre",
    "bias_ivw",
    "bias_egger",
    "asymptotic_var_tsre",
]


@dataclass(frozen=True)
class MomentParams:
    """Effect moments consumed by the closed forms.

    Second moments are raw (not central): e_bb2 = E(beta_b^2) and so on;
    e_bcac is the cross moment E(beta_c * alpha_c); e_bc and e_ac are the
    first moments of the group-c effects; var_beta pools groups b and c into
    one exposure-effect population.
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
    theta: float
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

    The strong/weak mixture enters both the second moments and the pooled
    Var(beta); the strong replacement draws are independent of alpha_c, so
    they contribute mu_strong * E(alpha_c) to the cross moment.
    """
    cfg.validate()
    mom = exposure_moments(cfg)
    m_bc = cfg.m_b + cfg.m_c
    if m_bc > 0:
        mean_beta = (cfg.m_b * mom["e_bb"] + cfg.m_c * mom["e_bc"]) / m_bc
        second_beta = (cfg.m_b * mom["e_bb2"] + cfg.m_c * mom["e_bc2"]) / m_bc
        var_beta = second_beta - mean_beta**2
    else:
        var_beta = 0.0
    return MomentParams(
        m_a=cfg.m_a,
        m_b=cfg.m_b,
        m_c=cfg.m_c,
        m_d=cfg.m_d,
        e_bb2=mom["e_bb2"],
        e_bc2=mom["e_bc2"],
        e_ac2=mom["e_ac2"],
        e_ad2=mom["e_ad2"],
        e_bcac=mom["e_bcac"],
        e_bc=mom["e_bc"],
        e_ac=mom["e_ac"],
        var_beta=var_beta,
        sigma2_ex=cfg.sigma2_ex,
        sigma2_ey=cfg.sigma2_ey,
        theta=cfg.theta,
        n=cfg.n,
    )


def _genetic_denominator(p: MomentParams) -> float:
    den = p.m_b * p.e_bb2 + p.m_c * p.e_bc2
    if den <= 0:
        raise EstimationError(
            "no genetic signal: m_b*E(beta_b^2) + m_c*E(beta_c^2) is zero"
        )
    return den


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
    where the bracketed quantities are m_b*E(beta_b^2) + m_c*E(beta_c^2) +
    sigma2_ex and m_c*E(alpha_c^2) + m_d*E(alpha_d^2) + sigma2_ey.
    """
    if p.n < 2:
        raise ConfigError("variance formula needs n >= 2")
    den = _genetic_denominator(p)
    var_x = den + p.sigma2_ex
    var_direct = p.m_c * p.e_ac2 + p.m_d * p.e_ad2 + p.sigma2_ey
    tau2 = p.m_total * var_x * var_direct / den**2
    var_theta = 2.0 * tau2 / (p.n * (p.n - 1))
    return tau2, var_theta
