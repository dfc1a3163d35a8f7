"""Pairwise second-moment regression of phenotype cross-products on the GRM.

For each of the N = n(n-1)/2 unordered pairs i < j the relatedness entry
A_ij predicts the exposure pair product X_i*X_j with slope eta and the
symmetrized cross product (X_i*Y_j + Y_i*X_j)/2 with slope delta; the causal
effect estimate is the slope ratio delta/eta.  Everything reduces to pair
sums that stream over the packed GRM triangle, so no N-pair design is ever
materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataError, EstimationError, centre_traits, check_traits
from .estimators import Estimate
from .genotype import Grm

__all__ = [
    "PairMoments",
    "pair_moments",
    "tsre_estimate",
    "moment_diagnostic",
]

# Denominator guard, in correlation units between A_ij and X_i*X_j over
# pairs.  Deliberately tiny: it rejects exactly degenerate inputs (constant
# exposure, zero GRM) while letting genuinely noisy ratios through, since
# the many-null-variant regime is expected to produce wild estimates rather
# than errors.
MIN_SIGNAL = 1e-6


@dataclass(frozen=True)
class PairMoments:
    """Sufficient statistics over all unordered pairs i < j.

    s_axx accumulates A_ij*X_i*X_j, s_axy the symmetrized cross products
    A_ij*(X_i*Y_j + Y_i*X_j)/2, s_a and s_aa the GRM entries and their
    squares, and s_xx/s_xy/s_xx2 the pure phenotype pair products.
    """

    s_axx: float
    s_axy: float
    s_a: float
    s_aa: float
    s_xx: float
    s_xy: float
    s_xx2: float
    n_pairs: int


def pair_moments(a: Grm, x, y) -> PairMoments:
    """Accumulate the pair sums for a GRM and a phenotype pair.

    Phenotypes are used as given (no centering here).  The GRM sums are
    reductions over the whole packed triangle minus their diagonal terms;
    the pure phenotype sums come from the identities
    sum_{i<j} x_i x_j = ((sum x)^2 - sum x^2)/2 and its relatives, so the
    cost is a few passes over the triangle plus O(n) vector work.
    """
    if a.n < 2:
        raise DataError(f"need at least 2 individuals, got {a.n}")
    x, y = check_traits(a.n, x, y)
    s_axx, s_axy, s_a, s_aa = kernels.pair_sums(a.lower_triangle, a.n, x, y)
    sx = float(np.sum(x))
    sy = float(np.sum(y))
    sx2 = float(x @ x)
    sy_x = float(x @ y)
    sx4 = float(np.sum(x**4))
    return PairMoments(
        s_axx=s_axx,
        s_axy=s_axy,
        s_a=s_a,
        s_aa=s_aa,
        s_xx=(sx * sx - sx2) / 2.0,
        s_xy=(sx * sy - sy_x) / 2.0,
        s_xx2=(sx2 * sx2 - sx4) / 2.0,
        n_pairs=a.n * (a.n - 1) // 2,
    )


def _guard_denominator(den: float, scale: float, spread: float):
    limit = MIN_SIGNAL * math.sqrt(max(scale, 0.0) * max(spread, 0.0))
    if abs(den) <= limit or den == 0.0:
        raise EstimationError(
            "weak genetic signal: exposure-pair regression denominator "
            f"{den:.6e} is below the guard threshold {limit:.6e}"
        )


def tsre_estimate(a: Grm, x, y) -> Estimate:
    """Fit the slope-ratio estimator on a GRM and phenotype pair.

    Both traits are mean-centered internally.  theta_hat is the ratio of the
    pair covariances of A with the cross and exposure products.
    se = sqrt(tau2 / n_pairs) with tau2 the plug-in asymptotic variance
    scale; n_iv is the number of variants behind the GRM.
    """
    if a.n < 3:
        raise DataError(f"need at least 3 individuals, got {a.n}")
    xc, yc = centre_traits(a.n, x, y)
    pm = pair_moments(a, xc, yc)
    npairs = pm.n_pairs
    den = pm.s_axx - pm.s_a * pm.s_xx / npairs
    num = pm.s_axy - pm.s_a * pm.s_xy / npairs
    # spreads of the GRM entries and of the exposure pair products
    scale = pm.s_aa - pm.s_a**2 / npairs
    spread = pm.s_xx2 - pm.s_xx**2 / npairs
    _guard_denominator(den, scale, spread)
    if scale <= 0:
        raise EstimationError("degenerate GRM: pair entries have no spread")
    theta = num / den
    se = _plugin_se(pm, den, theta, xc, yc, a.m_effective)
    return Estimate(method="tsre", theta_hat=theta, se=se, n_iv=a.m_effective)


def _plugin_se(pm, den, theta, xc, yc, m) -> float:
    # The asymptotic variance scale is
    #   tau2 = Var(X) * Var(Y - theta X) / (m * cov(A, XX)^2)
    # with cov(A, XX) the per-pair average of the fitted denominator, i.e.
    # the genetic variance of X divided by m.
    cov_axx = den / pm.n_pairs
    var_x = float(np.var(xc, ddof=1))
    resid = yc - theta * xc
    var_r = float(np.var(resid, ddof=1))
    tau2 = var_x * var_r / (m * cov_axx**2)
    return math.sqrt(tau2 / pm.n_pairs)


def moment_diagnostic(a: Grm, x, y, theta: float) -> tuple[float, float]:
    """Specification test of the pair moment condition at a candidate theta.

    Returns (mean, z) where mean is the average over pairs of the product of
    the centered GRM entry and the centered pair residual
    e_ij = (X_i Y_j + Y_i X_j)/2 - theta * X_i X_j, and z is mean divided by
    the pair-sample standard error.  At theta_hat of tsre_estimate the mean
    vanishes identically (the estimator's normal equation).
    """
    if a.n < 2:
        raise DataError(f"need at least 2 individuals, got {a.n}")
    xc, yc = centre_traits(a.n, x, y)
    pm = pair_moments(a, xc, yc)
    npairs = pm.n_pairs
    a_bar = pm.s_a / npairs
    e_bar = (pm.s_xy - theta * pm.s_xx) / npairs
    s_t, s_tt = kernels.diag_sums(
        a.lower_triangle, a.n, xc, yc, float(theta), a_bar, e_bar
    )
    mean = s_t / npairs
    var_t = (s_tt - npairs * mean * mean) / (npairs - 1) if npairs > 1 else 0.0
    if var_t <= 0:
        return mean, 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    z = mean / math.sqrt(var_t / npairs)
    return mean, z
