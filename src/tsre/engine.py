"""Pairwise second-moment regression of phenotype cross-products on the GRM.

For each of the N = n(n-1)/2 unordered pairs i < j the relatedness entry
A_ij predicts the exposure pair product X_i*X_j with slope eta and the
symmetrized cross product (X_i*Y_j + Y_i*X_j)/2 with slope delta; the causal
effect estimate is the slope ratio delta/eta.  One fit (_fit) reads it off
three relatedness pair sums and three trait pair sums, so no N-pair design
is ever materialized.  The relatedness sums come from a packed GRM triangle
(_grm_sums) or, with no GRM, from one read of the int8 dosages behind it
(sumstats._dosage_summaries): the summaries Z'x/n and Z'y/n of the
standardized Z and the row norms d_i = |z_i|^2/m (_summary_sums), O(nm) for
any shape.  Every replicate and `tsre estimate` fit takes that route.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, EstimationError, centre_traits
from .estimators import Estimate
from .genotype import GenotypeMatrix, Grm
from .sumstats import _dosage_summaries

__all__ = ["tsre_estimate", "moment_diagnostic"]

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


def tsre_estimate(a: Grm | GenotypeMatrix, x, y) -> Estimate:
    """Fit the slope-ratio estimator on a relationship matrix and phenotype pair.

    a is a Grm, or the genotypes whose GRM it would be, read once in int8
    column blocks for their summaries and row norms as a replicate and
    `tsre estimate` read them: the fit is theirs bit for bit and the Grm fit
    up to rounding.  Both traits are mean-centered internally.  theta_hat is
    the ratio of the pair covariances of A with the cross and exposure
    products.  se = sqrt(tau2 / n_pairs) with tau2 the plug-in asymptotic
    variance scale; n_iv is the number of variants behind A.
    """
    if a.n < 3:
        raise DataError(f"need at least 3 individuals, got {a.n}")
    if not isinstance(a, Grm):
        summaries, _, d = _dosage_summaries(a, x, y)
        return _summary_fit(summaries, d, x, y)
    xc, yc = centre_traits(a.n, x, y)
    return _fit(_grm_sums(a, xc, yc), a.m_effective, xc, yc)


def _summary_fit(summaries, d, x, y) -> Estimate:
    """tsre from the summaries of m variants and the row norms d over them."""
    xc, yc = centre_traits(d.size, x, y)
    return _fit(_summary_sums(summaries, d, xc, yc), len(summaries), xc, yc)


def _grm_sums(grm: Grm, x, y) -> tuple[float, float, float]:
    """(s_axx, s_axy, s_a): the sums of A_ij*x_i*x_j, A_ij*(x_i*y_j + y_i*x_j)/2
    and A_ij over the pairs i > j of a packed GRM.

    Each sum is a whole-triangle reduction minus its diagonal terms; the
    symmetric matrix-vector product A x comes from BLAS, because a row-major
    packed lower triangle is the column-major packed upper one that dspmv
    reads.
    """
    # imported here, its one use: scipy.linalg adds about 50 ms to `import tsre`
    from scipy.linalg.blas import dspmv

    tri, d = grm.lower_triangle, grm.diagonal()
    ax = dspmv(grm.n, 1.0, tri, x, lower=0)
    s_a = tri.sum() - d.sum()
    s_axx = (x @ ax - d @ (x * x)) / 2.0
    s_axy = (y @ ax - d @ (x * y)) / 2.0
    return float(s_axx), float(s_axy), float(s_a)


def _summary_sums(summaries, d, x, y) -> tuple[float, float, float]:
    """_grm_sums for A = Z Z'/m over the m summarised columns.  Those are
    centred (Z'1 = 0) with Gram n, so u = Z'x = n gamma_x and v = Z'y =
    n gamma_y; each sum is half its whole-matrix form minus the diagonal
    terms d_i = A_ii."""
    n, m = d.size, len(summaries)
    u = n * summaries["gamma_x"]
    v = n * summaries["gamma_y"]
    s_axx = (u @ u / m - d @ (x * x)) / 2.0
    s_axy = (u @ v / m - d @ (x * y)) / 2.0
    return float(s_axx), float(s_axy), float(-d.sum() / 2.0)


def _trait_sums(x, y) -> tuple[int, float, float, float]:
    """(N, s_xx, s_xy, s_xx2): the pair count and the sums of x_i*x_j,
    (x_i*y_j + y_i*x_j)/2 and (x_i*x_j)^2 over the N pairs i > j."""
    sx = float(np.sum(x))
    sy = float(np.sum(y))
    sx2 = float(x @ x)
    sy_x = float(x @ y)
    sx4 = float(np.sum(x**4))
    return (
        x.size * (x.size - 1) // 2,
        (sx * sx - sx2) / 2.0,
        (sx * sy - sy_x) / 2.0,
        (sx2 * sx2 - sx4) / 2.0,
    )


def _fit(sums, m: int, xc, yc) -> Estimate:
    """tsre from the relatedness sums (s_axx, s_axy, s_a) of m variants and
    the centred traits."""
    s_axx, s_axy, s_a = sums
    npairs, s_xx, s_xy, s_xx2 = _trait_sums(xc, yc)
    den = s_axx - s_a * s_xx / npairs
    num = s_axy - s_a * s_xy / npairs
    # spread of the exposure pair products; that of the GRM entries is
    # npairs/m (see MIN_SIGNAL)
    spread = s_xx2 - s_xx**2 / npairs
    limit = MIN_SIGNAL * math.sqrt(npairs / m * max(spread, 0.0))
    if abs(den) <= limit or den == 0.0:
        raise EstimationError(
            "weak genetic signal: exposure-pair regression denominator "
            f"{den:.6e} is below the guard threshold {limit:.6e}"
        )
    theta = num / den
    # The asymptotic variance scale is
    #   tau2 = Var(X) * Var(Y - theta X) / (m * cov(A, XX)^2)
    # with cov(A, XX) the per-pair average of the fitted denominator, i.e.
    # the genetic variance of X divided by m.
    cov_axx = den / npairs
    var_x = float(np.var(xc, ddof=1))
    var_r = float(np.var(yc - theta * xc, ddof=1))
    tau2 = var_x * var_r / (m * cov_axx**2)
    return Estimate(method="tsre", theta_hat=theta, se=math.sqrt(tau2 / npairs), n_iv=m)


def moment_diagnostic(a: Grm, x, y, theta: float) -> tuple[float, float]:
    """Specification test of the pair moment condition at a candidate theta.

    Returns (mean, z) where mean is the average over pairs of the product of
    the centered GRM entry and the centered pair residual
    e_ij = (X_i Y_j + Y_i X_j)/2 - theta * X_i X_j, and z is mean divided by
    the pair-sample standard error.  At theta_hat of tsre_estimate the mean
    vanishes identically (the estimator's normal equation).  The pair
    residual spread needs the GRM entries themselves, so a must be a Grm.
    A non-finite theta is a DataError; a theta so large that the residual
    moments overflow is an EstimationError.

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
    theta = float(theta)
    if not math.isfinite(theta):
        raise DataError(f"theta must be finite, got {theta}")
    xc, yc = centre_traits(a.n, x, y)
    npairs, s_xx, s_xy, _ = _trait_sums(xc, yc)
    a_bar = float(a.lower_triangle.sum() - a.diagonal().sum()) / npairs
    e_bar = (s_xy - theta * s_xx) / npairs
    with np.errstate(over="ignore", invalid="ignore"):
        s_t, s_tt = _diag_sums(a, xc, yc, theta, a_bar, e_bar)
    mean = s_t / npairs
    var_t = (s_tt - npairs * mean * mean) / (npairs - 1) if npairs > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(var_t)):
        raise EstimationError(f"the pair residual moments at theta={theta:.6e} overflow")
    if var_t <= 0:
        return mean, 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    z = mean / math.sqrt(var_t / npairs)
    return mean, z


def _diag_sums(grm: Grm, x, y, theta, a_bar, e_bar) -> tuple[float, float]:
    """First and second moments of t_ij = (A_ij - a_bar)*(e_ij - e_bar)
    where e_ij = (x_i*y_j + y_i*x_j)/2 - theta*x_i*x_j, over pairs i > j,
    one row of the packed triangle at a time."""
    tri = grm.lower_triangle
    s_t = 0.0
    s_tt = 0.0
    for i in range(1, grm.n):
        off = i * (i + 1) // 2
        row = tri[off:off + i]
        e = 0.5 * (x[i] * y[:i] + y[i] * x[:i]) - theta * x[i] * x[:i]
        t = (row - a_bar) * (e - e_bar)
        s_t += t.sum()
        s_tt += t @ t
    return float(s_t), float(s_tt)
