"""Scenario configuration and phenotype simulation.

A scenario draws four variant groups: null instruments (a), valid
instruments acting only on the exposure (b), pleiotropic instruments acting
on both traits (c), and outcome-only variants (d).  Phenotypes are built on
the standardized genotype scale:

    X = Z_b beta_b + Z_c beta_c + e_x
    Y = theta X + Z_c alpha_c + Z_d alpha_d + e_y

Residuals are mean-zero Gaussian with variances sigma2_ex and sigma2_ey and
correlation rho_e; rho_e > 0 plays the role of an unmeasured confounder
shared by both traits.  Exposure effects can follow a two-component mixture:
a fraction p_strong of the variants in the groups named by strong_groups get
effects from N(mu_strong, sigma_strong^2) instead of the weak distribution.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, EstimationError, open_text
from .genotype import StandardizedGenotypes

__all__ = [
    "ScenarioConfig",
    "EffectSet",
    "PhenotypePair",
    "sample_effects",
    "generate_phenotypes",
    "heritability",
    "exposure_moments",
    "load_scenario",
    "save_scenario",
]


@dataclass
class ScenarioConfig:
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
        cfg = dataclasses.replace(self, **updates)
        cfg.validate()
        return cfg


@dataclass
class EffectSet:
    """Per-variant effect draws plus the column layout of the four groups."""

    beta_b: np.ndarray
    beta_c: np.ndarray
    alpha_c: np.ndarray
    alpha_d: np.ndarray
    group_layout: dict[str, tuple[int, int]]
    strong_b: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    strong_c: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


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

    Group b effects are N(mu_gb, sigma_gb^2).  Group c draws (beta_c,
    alpha_c) jointly from the bivariate normal with correlation rho_gc.
    Group d effects are N(mu_gd, sigma_gd^2).  Strong assignment is a
    deterministic count, floor(p_strong * m), of positions taken from a
    seeded shuffle; designated exposure effects are replaced by fresh
    N(mu_strong, sigma_strong^2) draws, which leaves alpha_c untouched and
    removes the beta-alpha correlation inside the strong subset.
    """
    cfg.validate()
    beta_b = rng.normal(cfg.mu_gb, cfg.sigma_gb, size=cfg.m_b)
    z1 = rng.standard_normal(cfg.m_c)
    z2 = rng.standard_normal(cfg.m_c)
    beta_c = cfg.mu_gc_x + cfg.sigma_gc_x * z1
    alpha_c = cfg.mu_gc_y + cfg.sigma_gc_y * (
        cfg.rho_gc * z1 + math.sqrt(1.0 - cfg.rho_gc**2) * z2
    )
    alpha_d = rng.normal(cfg.mu_gd, cfg.sigma_gd, size=cfg.m_d)

    strong_b = np.empty(0, dtype=np.int64)
    strong_c = np.empty(0, dtype=np.int64)
    if cfg.p_strong > 0:
        if "b" in cfg.strong_groups and cfg.m_b > 0:
            k = int(cfg.p_strong * cfg.m_b)
            strong_b = np.sort(rng.permutation(cfg.m_b)[:k])
            beta_b[strong_b] = rng.normal(cfg.mu_strong, cfg.sigma_strong, size=k)
        if "c" in cfg.strong_groups and cfg.m_c > 0:
            k = int(cfg.p_strong * cfg.m_c)
            strong_c = np.sort(rng.permutation(cfg.m_c)[:k])
            beta_c[strong_c] = rng.normal(cfg.mu_strong, cfg.sigma_strong, size=k)

    return EffectSet(
        beta_b=beta_b,
        beta_c=beta_c,
        alpha_c=alpha_c,
        alpha_d=alpha_d,
        group_layout=group_layout(cfg),
        strong_b=strong_b,
        strong_c=strong_c,
    )


def generate_phenotypes(
    std: StandardizedGenotypes, effects: EffectSet, cfg: ScenarioConfig, rng
) -> PhenotypePair:
    """Build the exposure/outcome pair on the standardized genotype scale."""
    layout = effects.group_layout
    m_expected = max(stop for _, stop in layout.values())
    if std.m != m_expected:
        raise DataError(
            f"standardized matrix has {std.m} columns but the effect layout expects "
            f"{m_expected} (monomorphic columns were dropped?)"
        )
    z = std.values
    b0, b1 = layout["b"]
    c0, c1 = layout["c"]
    d0, d1 = layout["d"]
    genetic_x = z[:, b0:b1] @ effects.beta_b + z[:, c0:c1] @ effects.beta_c
    genetic_y = z[:, c0:c1] @ effects.alpha_c + z[:, d0:d1] @ effects.alpha_d

    u1 = rng.standard_normal(std.n)
    u2 = rng.standard_normal(std.n)
    e_x = math.sqrt(cfg.sigma2_ex) * u1
    e_y = math.sqrt(cfg.sigma2_ey) * (
        cfg.rho_e * u1 + math.sqrt(1.0 - cfg.rho_e**2) * u2
    )
    x = genetic_x + e_x
    y = cfg.theta * x + genetic_y + e_y
    return PhenotypePair(x=x, y=y)


def _mixture_second_moment(mu_weak, sigma_weak, cfg: ScenarioConfig, strong: bool):
    weak = mu_weak**2 + sigma_weak**2
    if not strong or cfg.p_strong == 0:
        return weak
    strong_moment = cfg.mu_strong**2 + cfg.sigma_strong**2
    return (1.0 - cfg.p_strong) * weak + cfg.p_strong * strong_moment


def exposure_moments(cfg: ScenarioConfig) -> dict[str, float]:
    """Population moments of the effect distributions implied by a scenario.

    Means and second moments account for the strong/weak mixture; the
    beta_c * alpha_c cross moment reflects that strong replacement draws are
    independent of alpha_c.
    """
    strong_b = "b" in cfg.strong_groups
    strong_c = "c" in cfg.strong_groups
    p = cfg.p_strong
    e_bb2 = _mixture_second_moment(cfg.mu_gb, cfg.sigma_gb, cfg, strong_b)
    e_bc2 = _mixture_second_moment(cfg.mu_gc_x, cfg.sigma_gc_x, cfg, strong_c)
    e_bb = (1 - p) * cfg.mu_gb + p * cfg.mu_strong if strong_b and p > 0 else cfg.mu_gb
    e_bc = (1 - p) * cfg.mu_gc_x + p * cfg.mu_strong if strong_c and p > 0 else cfg.mu_gc_x
    weak_cross = cfg.rho_gc * cfg.sigma_gc_x * cfg.sigma_gc_y + cfg.mu_gc_x * cfg.mu_gc_y
    if strong_c and p > 0:
        e_bcac = (1 - p) * weak_cross + p * cfg.mu_strong * cfg.mu_gc_y
    else:
        e_bcac = weak_cross
    return {
        "e_bb": e_bb,
        "e_bc": e_bc,
        "e_bb2": e_bb2,
        "e_bc2": e_bc2,
        "e_ac": cfg.mu_gc_y,
        "e_ac2": cfg.mu_gc_y**2 + cfg.sigma_gc_y**2,
        "e_ad2": cfg.mu_gd**2 + cfg.sigma_gd**2,
        "e_bcac": e_bcac,
    }


def heritability(cfg: ScenarioConfig) -> float:
    """Fraction of exposure variance explained by genetics."""
    mom = exposure_moments(cfg)
    genetic = cfg.m_b * mom["e_bb2"] + cfg.m_c * mom["e_bc2"]
    total = genetic + cfg.sigma2_ex
    if total <= 0:
        raise EstimationError("heritability undefined: total exposure variance is zero")
    return genetic / total


# Value parser per scenario key, from the field annotations (strings under
# `from __future__ import annotations`).
_PARSERS = {
    f.name: {"int": int, "float": float, "str": str}[f.type]
    for f in fields(ScenarioConfig)
}


def save_scenario(cfg: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        for f in fields(ScenarioConfig):
            fh.write(f"{f.name} = {getattr(cfg, f.name)}\n")


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
    cfg = ScenarioConfig(**values)
    cfg.validate()
    return cfg
