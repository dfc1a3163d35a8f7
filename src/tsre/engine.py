"""Pairwise second-moment regression of phenotype cross-products on the GRM.

For each of the N = n(n-1)/2 unordered pairs i < j the relatedness entry
A_ij predicts the exposure pair product X_i*X_j with slope eta and the
symmetrized cross product (X_i*Y_j + Y_i*X_j)/2 with slope delta; the causal
effect estimate is the slope ratio delta/eta.  Everything reduces to three
relatedness pair sums, so no N-pair design is ever materialized.  They come
from a packed GRM triangle (a Grm) or from the standardized genotypes Z
behind it, whichever the caller holds.  From Z they need only the
per-variant summaries, whose marginal effects are Z'x/n and Z'y/n, plus the
row norms d_i = |z_i|^2/m: O(nm) for any shape, and A = Z Z'/m is never
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataError, EstimationError, centre_traits, check_traits
from .estimators import Estimate
from .genotype import Grm, StandardizedGenotypes, _row_norms
from .sumstats import per_variant_regression

__all__ = ["PairMoments", "pair_moments", "tsre_estimate", "moment_diagnostic"]

# Denominator guard, in correlation units between A_ij and X_i*X_j over
# pairs.  Deliberately tiny: it rejects exactly degenerate inputs (constant
# exposure, a GRM whose pair entries do not vary) while letting genuinely
# noisy ratios through, since the many-null-variant regime is expected to
# produce wild estimates rather than errors.  The spread of A over pairs is
# taken as npairs/m, its value for m independent standardized variants:
# over table2, table4, s3 and fig3 replicates the measured spread lay within
# 1 % of it, and the smallest |corr(A, XX)| seen was 7.7e-5 (the table4
# null_50000 replicate behind the collapse claim), over 70 times this guard,
# so no replicate sits near the boundary.
MIN_SIGNAL = 1e-6


@dataclass(frozen=True)
class PairMoments:
    """Sufficient statistics over all unordered pairs i < j.

    s_axx accumulates A_ij*X_i*X_j, s_axy the symmetrized cross products
    A_ij*(X_i*Y_j + Y_i*X_j)/2, s_a the GRM entries, and s_xx/s_xy/s_xx2 the
    pure phenotype pair products.
    """

    s_axx: float
    s_axy: float
    s_a: float
    s_xx: float
    s_xy: float
    s_xx2: float
    n_pairs: int


def pair_moments(a: Grm | StandardizedGenotypes, x, y) -> PairMoments:
    """Accumulate the pair sums for a relationship matrix and a phenotype pair.

    Phenotypes are used as given (no centering here).  The relatedness sums
    come from the packed triangle of a Grm (kernels.pair_sums, a few passes
    over its n(n+1)/2 entries), or from standardized genotypes of any shape:
    their per-variant summaries plus the row norms (_summary_moments, O(nm)).
    The pure phenotype sums come from the identities
    sum_{i<j} x_i x_j = ((sum x)^2 - sum x^2)/2 and its relatives, in O(n).
    """
    # the genotype route runs per_variant_regression, which needs 3
    min_n = 2 if isinstance(a, Grm) else 3
    if a.n < min_n:
        raise DataError(f"need at least {min_n} individuals, got {a.n}")
    x, y = check_traits(a.n, x, y)
    if isinstance(a, Grm):
        return _moments(kernels.pair_sums(a.lower_triangle, a.n, x, y), x, y)
    return _summary_moments(per_variant_regression(a, x, y), _row_norms(a.values), x, y)


def _summary_moments(summaries, d, x, y) -> PairMoments:
    # A = Z Z'/m over the m summarised columns, whose standardized columns
    # are centred (Z'1 = 0) with Gram n, so u = Z'x = n gamma_x and
    # v = Z'y = n gamma_y.  Each sum is half its whole-matrix form minus the
    # diagonal terms d_i = A_ii.
    n, m = d.size, len(summaries)
    u = n * summaries["gamma_x"]
    v = n * summaries["gamma_y"]
    s_axx = (u @ u / m - d @ (x * x)) / 2.0
    s_axy = (u @ v / m - d @ (x * y)) / 2.0
    return _moments((s_axx, s_axy, -d.sum() / 2.0), x, y)


def _moments(sums, x, y) -> PairMoments:
    """PairMoments from the three relatedness sums and the phenotype pair."""
    s_axx, s_axy, s_a = (float(s) for s in sums)
    sx = float(np.sum(x))
    sy = float(np.sum(y))
    sx2 = float(x @ x)
    sy_x = float(x @ y)
    sx4 = float(np.sum(x**4))
    return PairMoments(
        s_axx=s_axx,
        s_axy=s_axy,
        s_a=s_a,
        s_xx=(sx * sx - sx2) / 2.0,
        s_xy=(sx * sy - sy_x) / 2.0,
        s_xx2=(sx2 * sx2 - sx4) / 2.0,
        n_pairs=x.size * (x.size - 1) // 2,
    )


def tsre_estimate(a: Grm | StandardizedGenotypes, x, y) -> Estimate:
    """Fit the slope-ratio estimator on a relationship matrix and phenotype pair.

    a is a Grm, or the standardized genotypes whose GRM it would be; both
    give the same fit up to rounding.  Genotypes are read only through their
    per-variant summaries and row norms, which a replicate takes from its
    int8 dosages (_summary_fit).  Both traits are mean-centered internally.  theta_hat is
    the ratio of the pair covariances of A with the cross and exposure
    products.  se = sqrt(tau2 / n_pairs) with tau2 the plug-in asymptotic
    variance scale; n_iv is the number of variants behind A.
    """
    if a.n < 3:
        raise DataError(f"need at least 3 individuals, got {a.n}")
    if not isinstance(a, Grm):
        return _summary_fit(per_variant_regression(a, x, y), _row_norms(a.values), x, y)
    xc, yc = centre_traits(a.n, x, y)
    return _fit(pair_moments(a, xc, yc), a.m_effective, xc, yc)


def _summary_fit(summaries, d, x, y) -> Estimate:
    """tsre from the summaries of m selected variants (per_variant_regression
    of x and y) and the row norms d over the same columns."""
    xc, yc = centre_traits(d.size, x, y)
    return _fit(_summary_moments(summaries, d, xc, yc), len(summaries), xc, yc)


def _fit(pm: PairMoments, m: int, xc, yc) -> Estimate:
    npairs = pm.n_pairs
    den = pm.s_axx - pm.s_a * pm.s_xx / npairs
    num = pm.s_axy - pm.s_a * pm.s_xy / npairs
    # spread of the exposure pair products; that of the GRM entries is
    # npairs/m (see MIN_SIGNAL)
    spread = pm.s_xx2 - pm.s_xx**2 / npairs
    limit = MIN_SIGNAL * math.sqrt(npairs / m * max(spread, 0.0))
    if abs(den) <= limit or den == 0.0:
        raise EstimationError(
            "weak genetic signal: exposure-pair regression denominator "
            f"{den:.6e} is below the guard threshold {limit:.6e}"
        )
    theta = num / den
    se = _plugin_se(pm, den, theta, xc, yc, m)
    return Estimate(method="tsre", theta_hat=theta, se=se, n_iv=m)


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
    vanishes identically (the estimator's normal equation).  The pair
    residual spread needs the GRM entries themselves, so a must be a Grm.

    The standard error treats the N pair terms as independent, but pairs
    that share an individual are correlated, so z over-rejects: at the true
    theta (n=300, m=60, 300 replicates) |z| > 1.96 held in 23.7 % of
    replicates against a nominal 5 %.  Read z as a scale, not as a
    calibrated test.
    """
    if not isinstance(a, Grm):
        raise TypeError(
            f"moment_diagnostic needs a Grm, got {type(a).__name__}; build one with compute_grm"
        )
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
