"""Scenario configuration and phenotype simulation.

A scenario draws four variant groups: null instruments (a), valid
instruments acting only on the exposure (b), pleiotropic instruments acting
on both traits (c), and outcome-only variants (d).  Phenotypes are built on
the standardized genotype scale:

    X = Z beta + e_x               (beta zero outside groups b and c)
    Y = theta X + Z alpha + e_y    (alpha zero outside groups c and d)

Residuals are mean-zero Gaussian with variances sigma2_ex and sigma2_ey and
correlation rho_e; rho_e > 0 plays the role of an unmeasured confounder
shared by both traits.  Exposure effects can follow a two-component mixture:
a fraction p_strong of the variants in the groups named by strong_groups get
effects from N(mu_strong, sigma_strong^2) instead of the weak distribution.

This module only draws.  The population quantities of a scenario (effect
moments, heritability, closed-form bias and variance) live in `tsre.theory`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, open_text
from .genotype import GenotypeMatrix, StandardizedGenotypes, _standardized_product

__all__ = [
    "ScenarioConfig",
    "EffectSet",
    "PhenotypePair",
    "sample_effects",
    "generate_phenotypes",
    "load_scenario",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario; immutable and validated when built."""

    n: int = 1000
    m_a: int = 0
    m_b: int = 0
    m_c: int = 0
    m_d: int = 0
    mu_gb: float = 0.0
    sigma_gb: float = 0.0
    mu_gc_x: float = 0.0
    sigma_gc_x: float = 0.0
    mu_gc_y: float = 0.0
    sigma_gc_y: float = 0.0
    rho_gc: float = 0.0
    mu_gd: float = 0.0
    sigma_gd: float = 0.0
    p_strong: float = 0.0
    mu_strong: float = 0.0
    sigma_strong: float = 0.0
    theta: float = 0.0
    sigma2_ex: float = 1.0
    sigma2_ey: float = 1.0
    rho_e: float = 0.0
    strong_groups: str = "bc"
    maf_low: float = 0.2
    maf_high: float = 0.3
    seed: int = 0

    def __post_init__(self):
        self.validate()

    @property
    def m_total(self) -> int:
        return self.m_a + self.m_b + self.m_c + self.m_d

    def validate(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        for name in ("m_a", "m_b", "m_c", "m_d"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.m_total < 1:
            raise ConfigError("at least one variant group must be non-empty")
        for name in ("sigma_gb", "sigma_gc_x", "sigma_gc_y", "sigma_gd", "sigma_strong"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not -1.0 <= self.rho_gc <= 1.0:
            raise ConfigError("rho_gc must lie in [-1, 1]")
        if not -1.0 <= self.rho_e <= 1.0:
            raise ConfigError("rho_e must lie in [-1, 1]")
        if not 0.0 <= self.p_strong <= 1.0:
            raise ConfigError("p_strong must lie in [0, 1]")
        if self.sigma2_ex < 0 or self.sigma2_ey < 0:
            raise ConfigError("residual variances must be non-negative")
        if not (0.0 < self.maf_low <= self.maf_high < 1.0):
            raise ConfigError("allele frequencies must satisfy 0 < maf_low <= maf_high < 1")
        if not set(self.strong_groups) <= {"b", "c"}:
            raise ConfigError("strong_groups may only contain the letters 'b' and 'c'")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def replace(self, **updates) -> "ScenarioConfig":
        return dataclasses.replace(self, **updates)


@dataclass
class EffectSet:
    """Per-variant effect draws of one replicate: float64 vectors of length
    `cfg.m_total` in genotype-column order.  `beta` (exposure) is zero
    outside groups b and c, `alpha` (direct outcome) outside groups c and d;
    `group_layout(cfg)` gives the columns of each group."""

    beta: np.ndarray
    alpha: np.ndarray


@dataclass
class PhenotypePair:
    x: np.ndarray
    y: np.ndarray


def group_layout(cfg: ScenarioConfig) -> dict[str, tuple[int, int]]:
    """Column ranges of groups a, b, c, d in the simulated genotype matrix."""
    edges = np.cumsum([0, cfg.m_a, cfg.m_b, cfg.m_c, cfg.m_d])
    return {g: (int(edges[i]), int(edges[i + 1])) for i, g in enumerate("abcd")}


def sample_effects(cfg: ScenarioConfig, rng) -> EffectSet:
    """Draw the effect vectors for one replicate.

    Group b effects are N(mu_gb, sigma_gb^2).  Group c draws (beta, alpha)
    jointly from the bivariate normal with correlation rho_gc.  Group d
    effects are N(mu_gd, sigma_gd^2).  Strong assignment is a deterministic
    count, floor(p_strong * m), of positions taken from a seeded shuffle;
    designated exposure effects are replaced by fresh N(mu_strong,
    sigma_strong^2) draws, which leaves alpha untouched and removes the
    beta-alpha correlation inside the strong subset.
    """
    _, b, c, d = (slice(*cols) for cols in group_layout(cfg).values())
    beta, alpha = np.zeros(cfg.m_total), np.zeros(cfg.m_total)
    beta[b] = rng.normal(cfg.mu_gb, cfg.sigma_gb, size=cfg.m_b)
    z1 = rng.standard_normal(cfg.m_c)
    z2 = rng.standard_normal(cfg.m_c)
    beta[c] = cfg.mu_gc_x + cfg.sigma_gc_x * z1
    alpha[c] = cfg.mu_gc_y + cfg.sigma_gc_y * (
        cfg.rho_gc * z1 + math.sqrt(1.0 - cfg.rho_gc**2) * z2
    )
    alpha[d] = rng.normal(cfg.mu_gd, cfg.sigma_gd, size=cfg.m_d)

    for g, group in (("b", beta[b]), ("c", beta[c])):
        if cfg.p_strong > 0 and g in cfg.strong_groups and group.size > 0:
            k = int(cfg.p_strong * group.size)
            strong = np.sort(rng.permutation(group.size)[:k])
            group[strong] = rng.normal(cfg.mu_strong, cfg.sigma_strong, size=k)

    return EffectSet(beta=beta, alpha=alpha)


def generate_phenotypes(
    genotypes: StandardizedGenotypes | GenotypeMatrix, effects: EffectSet, cfg: ScenarioConfig, rng
) -> PhenotypePair:
    """Build the exposure/outcome pair on the standardized genotype scale.

    genotypes is the standardized matrix, or the dosages themselves, which
    are then read in int8 column blocks (genotype module docstring).  Only
    the columns of groups b, c and d are read."""
    if genotypes.m != cfg.m_total:
        raise DataError(
            f"genotype matrix has {genotypes.m} columns but the effect layout expects "
            f"{cfg.m_total} (monomorphic columns were dropped?)"
        )
    # groups b, c and d: Z @ beta would also multiply group a's zero effects
    cols = slice(cfg.m_a, cfg.m_total)
    w = np.column_stack([effects.beta[cols], effects.alpha[cols]])
    if isinstance(genotypes, GenotypeMatrix):
        genetic = _standardized_product(genotypes.dosages[:, cols], w)
    else:
        genetic = genotypes.values[:, cols] @ w

    u1 = rng.standard_normal(genotypes.n)
    u2 = rng.standard_normal(genotypes.n)
    e_x = math.sqrt(cfg.sigma2_ex) * u1
    e_y = math.sqrt(cfg.sigma2_ey) * (
        cfg.rho_e * u1 + math.sqrt(1.0 - cfg.rho_e**2) * u2
    )
    x = genetic[:, 0] + e_x
    y = cfg.theta * x + genetic[:, 1] + e_y
    return PhenotypePair(x=x, y=y)


# Value parser per scenario key, from the field annotations (strings under
# `from __future__ import annotations`).
_PARSERS = {
    f.name: {"int": int, "float": float, "str": str}[f.type]
    for f in fields(ScenarioConfig)
}


def load_scenario(path) -> ScenarioConfig:
    """Parse a flat `key = value` scenario file.

    Blank lines and lines starting with '#' are ignored; unknown and
    repeated keys are errors rather than silent no-ops.
    """
    values: dict[str, object] = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _PARSERS:
                raise ConfigError(f"{path}: line {lineno}: unknown key '{key}'")
            if key in values:
                raise ConfigError(f"{path}: line {lineno}: repeated key '{key}'")
            try:
                values[key] = _PARSERS[key](text)
            except ValueError:
                raise ConfigError(
                    f"{path}: line {lineno}: cannot parse value {text!r} for '{key}'"
                ) from None
    try:
        return ScenarioConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
