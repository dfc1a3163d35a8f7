"""Classic instrumental-variable estimators on summary statistics.

All summary-based estimators consume VariantSummary rows and return an
Estimate.  Standard errors of the median estimators come from a parametric
bootstrap; the inverse-variance weighted (IVW) estimator offers fixed- and
random-effect standard errors, where the random-effect version inflates the
fixed se by the square root of the Cochran overdispersion factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EstimationError, centre_traits
from .sumstats import VariantSummary

__all__ = [
    "Estimate",
    "tsls",
    "ivw",
    "egger",
    "simple_median",
    "weighted_median",
]

# Parametric bootstrap draws behind the median estimators' standard errors.
N_BOOT = 1000


@dataclass
class Estimate:
    """One estimator's output.

    method is one of: tsls, ivw_fe, ivw_re, egger, simple_median,
    weighted_median, tsre.  intercept is the Egger intercept and
    overdispersion the fitted inflation factor; both are None where the
    method has no such concept.
    """

    method: str
    theta_hat: float
    se: float
    n_iv: int
    intercept: float | None = None
    overdispersion: float | None = None


def _unpack(summaries: list[VariantSummary]):
    if not summaries:
        raise EstimationError("no instruments supplied")
    gx = np.array([s.gamma_x for s in summaries])
    se_x = np.array([s.se_x for s in summaries])
    gy = np.array([s.gamma_y for s in summaries])
    se_y = np.array([s.se_y for s in summaries])
    return gx, se_x, gy, se_y


def _outcome_weights(se_y: np.ndarray) -> np.ndarray:
    if np.any(se_y <= 0):
        raise EstimationError("degenerate weights: an outcome standard error is zero")
    return se_y**-2


def tsls(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> Estimate:
    """Two-stage least squares on individual-level data.

    g holds the selected instrument columns (standardized genotypes); traits
    are centered internally, so no intercept is fit.  The standard error is
    the usual homoskedastic form sigma^2 / (x' P x) with P the projection
    onto the instrument span.
    """
    g = np.atleast_2d(np.asarray(g, dtype=np.float64))
    n, k = g.shape
    if k > n:
        raise DataError(f"two-stage least squares needs n >= K (got n={n}, K={k})")
    if n < 3:
        raise EstimationError("two-stage least squares needs at least 3 individuals")
    xc, yc = centre_traits(n, x, y)
    coef, _, rank, _ = np.linalg.lstsq(g, xc, rcond=None)
    if rank < k:
        raise EstimationError("singular design: instrument columns are collinear")
    fitted = g @ coef
    denom = fitted @ fitted
    if denom <= 0:
        raise EstimationError("no signal: first-stage fit is identically zero")
    theta = float((fitted @ yc) / denom)
    resid = yc - theta * xc
    sigma2 = float(resid @ resid) / (n - 1)
    return Estimate(method="tsls", theta_hat=theta, se=float(np.sqrt(sigma2 / denom)), n_iv=k)


def ivw(summaries: list[VariantSummary], mode: str = "random") -> Estimate:
    """Inverse-variance weighted estimator with weights 1/se_y^2.

    mode "fixed" keeps the analytic fixed-effect standard error; "random"
    multiplies it by sqrt(max(1, Q/(K-1))) where Q is Cochran's statistic of
    the ratio residuals.  Point estimates are identical in both modes.
    """
    if mode not in ("fixed", "random"):
        raise DataError(f"unknown IVW mode {mode!r}")
    gx, _, gy, se_y = _unpack(summaries)
    w = _outcome_weights(se_y)
    denom = float(np.sum(w * gx * gx))
    if denom == 0.0:
        raise EstimationError("no signal: all exposure effects are zero")
    k = len(summaries)
    if k == 1:
        # with one instrument the weighted form reduces to the plain Wald
        # ratio; compute it directly so the identity is exact in floats
        theta = float(gy[0] / gx[0])
    else:
        theta = float(np.sum(w * gy * gx)) / denom
    se = float(np.sqrt(1.0 / denom))
    phi2 = None
    if mode == "random":
        phi2 = 1.0
        if k >= 2:
            q = float(np.sum(w * (gy - theta * gx) ** 2))
            phi2 = max(1.0, q / (k - 1))
        se *= float(np.sqrt(phi2))
    return Estimate(
        method="ivw_fe" if mode == "fixed" else "ivw_re",
        theta_hat=theta,
        se=se,
        n_iv=k,
        overdispersion=phi2,
    )


def egger(summaries: list[VariantSummary]) -> Estimate:
    """Weighted regression of gamma_y on gamma_x with a free intercept.

    Exposure effects are oriented non-negative first (flipping the matched
    outcome effects), which makes the intercept identifiable as the average
    directional pleiotropy.  The standard error carries the multiplicative
    inflation max(1, phi^2) with phi^2 the weighted residual mean square.
    """
    gx, _, gy, se_y = _unpack(summaries)
    k = len(summaries)
    if k < 3:
        raise EstimationError("Egger regression needs at least 3 instruments")
    w = _outcome_weights(se_y)
    flip = np.where(gx < 0, -1.0, 1.0)
    gx = gx * flip
    gy = gy * flip
    sw = float(np.sum(w))
    swx = float(np.sum(w * gx))
    swxx = float(np.sum(w * gx * gx))
    swy = float(np.sum(w * gy))
    swxy = float(np.sum(w * gx * gy))
    det = sw * swxx - swx * swx
    if det <= 1e-12 * sw * max(swxx, 1e-300):
        raise EstimationError("singular design: oriented exposure effects are collinear")
    theta = (sw * swxy - swx * swy) / det
    intercept = (swy - theta * swx) / sw
    resid = gy - intercept - theta * gx
    phi2 = float(np.sum(w * resid * resid)) / (k - 2)
    inflation = max(1.0, phi2)
    se = float(np.sqrt(sw / det * inflation))
    return Estimate(
        method="egger",
        theta_hat=float(theta),
        se=se,
        n_iv=k,
        intercept=float(intercept),
        overdispersion=inflation,
    )


def _ratio_inputs(summaries: list[VariantSummary]):
    gx, se_x, gy, se_y = _unpack(summaries)
    keep = gx != 0.0
    if not keep.any():
        raise EstimationError("no signal: all exposure effects are zero")
    return gx[keep], se_x[keep], gy[keep], se_y[keep]


def _weighted_median(ratios: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Interpolated weighted median of each row of ratios, one weight per column.

    Bit for bit np.interp(0.5, p, r) on every row, with r the sorted row and
    p its centered cumulative weights (cum - w/2) / total.
    """
    order = np.argsort(ratios, axis=1)
    r = np.take_along_axis(ratios, order, axis=1)
    w = weights[order]
    total = w.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise EstimationError("degenerate weights: total weighted-median weight is zero")
    p = (np.cumsum(w, axis=1) - 0.5 * w) / total
    rows = np.arange(r.shape[0])
    left = np.maximum((p <= 0.5).sum(axis=1) - 1, 0)
    right = np.minimum(left + 1, r.shape[1] - 1)
    pl, pr = p[rows, left], p[rows, right]
    rl, rr = r[rows, left], r[rows, right]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (rr - rl) / (pr - pl) * (0.5 - pl) + rl
    out = np.where(0.5 < p[:, 0], r[:, 0], out)
    return np.where(0.5 >= p[:, -1], r[:, -1], out)


def _bootstrap_se(point_fn, gx, se_x, gy, se_y, rng) -> float:
    zx = rng.standard_normal((N_BOOT, gx.size))
    zy = rng.standard_normal((N_BOOT, gx.size))
    bx = gx + se_x * zx
    by = gy + se_y * zy
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = by / bx
    est = point_fn(ratios)
    return float(np.std(est, ddof=1))


def simple_median(summaries: list[VariantSummary], rng=None) -> Estimate:
    """Median of the per-variant ratio estimates.

    Variants with a zero exposure effect carry no ratio information and are
    dropped.  The standard error is the sd over N_BOOT parametric bootstrap
    replicates in which every gamma is redrawn from N(gamma, se^2).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    gx, se_x, gy, se_y = _ratio_inputs(summaries)
    theta = float(np.median(gy / gx))
    se = _bootstrap_se(lambda r: np.median(r, axis=1), gx, se_x, gy, se_y, rng)
    return Estimate(method="simple_median", theta_hat=theta, se=se, n_iv=gx.size)


def weighted_median(summaries: list[VariantSummary], rng=None) -> Estimate:
    """Interpolated 50th weighted percentile of the ratio estimates.

    Weights are gamma_x^2 / se_y^2.  Ratios are sorted, cumulative weights
    are normalized and centered (cum - w/2), and the estimate interpolates
    linearly at probability 0.5.  The bootstrap reuses the observed weights.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    gx, se_x, gy, se_y = _ratio_inputs(summaries)
    if np.any(se_y <= 0):
        raise EstimationError("degenerate weights: an outcome standard error is zero")
    weights = gx * gx / (se_y * se_y)
    theta = float(_weighted_median((gy / gx)[None, :], weights)[0])
    se = _bootstrap_se(lambda r: _weighted_median(r, weights), gx, se_x, gy, se_y, rng)
    return Estimate(method="weighted_median", theta_hat=theta, se=se, n_iv=gx.size)
