"""Classic instrumental-variable estimators on summary statistics.

All summary-based estimators take a sumstats.SUMMARY_DTYPE record array, or
a list of its rows, and return an Estimate.  Standard errors of the median
estimators come from a parametric bootstrap; the inverse-variance weighted
(IVW) estimator offers fixed- and random-effect standard errors, where the
random-effect version inflates the fixed se by the square root of the
Cochran overdispersion factor.

The bootstrap draws its N_BOOT x K exposure normals whole and its outcome
normals in row blocks of about _BOOT_BLOCK_CELLS cells (512 KB) into one
reused buffer, taking each block's ratios and point estimates before the
next: at K=1000 a weighted-median bootstrap holds 8 MB and four blocks of
about 0.5 MB instead of 54 MB.  The point functions work in place on the
block: the simple median sorts its rows, and the weighted median argsorts
them once and reads only the four ratios its interpolation needs.  The
blocks take the same normals in the same order as one draw, and both point
functions work row by row, so every se keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EstimationError, centre_traits

__all__ = ["Estimate", "tsls", "ivw", "egger", "simple_median", "weighted_median"]

# Parametric bootstrap draws behind the median estimators' standard errors.
N_BOOT = 1000
# Cells of one row block of the bootstrap's outcome normals: 512 KB of
# float64, so that the block and the weighted median's three block-sized
# temporaries fit one core's 2 MB L2 cache.
_BOOT_BLOCK_CELLS = 1 << 16


@dataclass
class Estimate:
    """One estimator's output.

    method is one of: tsls, ivw_fe, ivw_re, egger, simple_median,
    weighted_median, tsre.  intercept is the Egger intercept and
    overdispersion the fitted inflation factor; both are None where the
    method has no such concept.  theta_hat and se are always finite.
    """

    method: str
    theta_hat: float
    se: float
    n_iv: int
    intercept: float | None = None
    overdispersion: float | None = None

    def __post_init__(self):
        if not np.isfinite([self.theta_hat, self.se]).all():
            raise EstimationError(f"{self.method}: non-finite theta_hat or se")


def _unpack(summaries):
    if len(summaries) == 0:
        raise EstimationError("no instruments supplied")
    s = np.asarray(summaries)
    return s["gamma_x"], s["se_x"], s["gamma_y"], s["se_y"]


def _outcome_weights(se_y: np.ndarray) -> np.ndarray:
    if np.any(se_y <= 0):
        raise EstimationError("degenerate weights: an outcome standard error is zero")
    return se_y**-2


def _check_instruments(n: int, k: int) -> None:
    """Two-stage least squares on K = k instruments needs n >= K individuals."""
    if k > n:
        raise DataError(f"two-stage least squares needs n >= K (got n={n}, K={k})")


def tsls(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> Estimate:
    """Two-stage least squares on individual-level data.

    g holds the selected instrument columns (standardized genotypes); traits
    are centered internally, so no intercept is fit.  The standard error is
    the usual homoskedastic form sigma^2 / (x' P x) with P the projection
    onto the instrument span.
    """
    g = np.asarray(g, dtype=np.float64)
    g = g.reshape(-1, 1) if g.ndim < 2 else g  # a vector is one instrument
    n, k = g.shape
    _check_instruments(n, k)
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


def ivw(summaries, mode: str = "random") -> Estimate:
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


def egger(summaries) -> Estimate:
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


def _ratios(gy, gx, out=None):
    # A ratio may overflow (a subnormal gx): Estimate rejects an infinite
    # point estimate, and a bootstrap draw only feeds a median.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.divide(gy, gx, out=out)


def _ratio_inputs(summaries):
    """(ratios, gx, se_x, gy, se_y) of the variants with gx != 0."""
    gx, se_x, gy, se_y = _unpack(summaries)
    keep = gx != 0.0
    if not keep.any():
        raise EstimationError("no signal: all exposure effects are zero")
    gx, gy = gx[keep], gy[keep]
    return _ratios(gy, gx), gx, se_x[keep], gy, se_y[keep]


def _row_medians(r: np.ndarray) -> np.ndarray:
    """np.median(r, axis=1) bit for bit, sorting the rows of r in place.

    Like np.median, it takes the mean of the one or two middle values, which
    sums from +0.0 and so turns a -0.0 middle into +0.0, and it returns a
    row's NaN, bits and all, for every row that holds one.  np.sort writes
    NaNs back as +nan, so those are read before the sort.
    """
    nan_rows = np.flatnonzero(np.isnan(r.max(axis=1)))
    held = r[nan_rows]
    nans = held[np.arange(len(held)), np.isnan(held).argmax(axis=1)]
    r.sort(axis=1)
    k = r.shape[1]
    med = r[:, (k - 1) // 2 : k // 2 + 1].mean(axis=1)
    med[nan_rows] = nans
    return med


def _weighted_median(ratios: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Interpolated weighted median of each row of ratios, one weight per column.

    Bit for bit np.interp(0.5, p, r) on every row, with r the sorted row and
    p its centered cumulative weights (cum - w/2) / total.  p is built in the
    buffer of the sorted weights, and of the sorted ratios only the four the
    interpolation reads are gathered.
    """
    order = np.argsort(ratios, axis=1)
    p = weights[order]
    total = p.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise EstimationError("degenerate weights: total weighted-median weight is zero")
    cum = np.cumsum(p, axis=1)
    p *= 0.5
    np.subtract(cum, p, out=p)
    del cum
    p /= total
    rows = np.arange(p.shape[0])
    left = np.maximum((p <= 0.5).sum(axis=1) - 1, 0)
    right = np.minimum(left + 1, p.shape[1] - 1)

    def sorted_at(col):  # the sorted ratio at one column (or column per row)
        return ratios[rows, order[rows, col]]

    pl, pr = p[rows, left], p[rows, right]
    rl = sorted_at(left)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (sorted_at(right) - rl) / (pr - pl) * (0.5 - pl) + rl
    out = np.where(0.5 < p[:, 0], sorted_at(0), out)
    return np.where(0.5 >= p[:, -1], sorted_at(-1), out)


def _bootstrap_se(point_fn, gx, se_x, gy, se_y, rng) -> float:
    """sd of point_fn over N_BOOT parametric bootstrap draws, with by drawn
    in row blocks (module docstring) and the bits, in place, of
    gx + se_x * zx, gy + se_y * zy and by / bx."""
    rng = np.random.default_rng(0) if rng is None else rng
    bx = rng.standard_normal((N_BOOT, gx.size))
    bx *= se_x
    bx += gx
    rows = min(N_BOOT, max(1, _BOOT_BLOCK_CELLS // gx.size))
    buf = np.empty((rows, gx.size))
    est = np.empty(N_BOOT)
    for r0 in range(0, N_BOOT, rows):
        by = buf[: min(rows, N_BOOT - r0)]
        rng.standard_normal(out=by)
        by *= se_y
        by += gy
        _ratios(by, bx[r0 : r0 + len(by)], out=by)
        est[r0 : r0 + len(by)] = point_fn(by)
    return float(np.std(est, ddof=1))


def simple_median(summaries, rng=None) -> Estimate:
    """Median of the per-variant ratio estimates.

    Variants with a zero exposure effect carry no ratio information and are
    dropped.  The standard error is the sd over N_BOOT parametric bootstrap
    replicates in which every gamma is redrawn from N(gamma, se^2).
    """
    ratios, gx, se_x, gy, se_y = _ratio_inputs(summaries)
    theta = float(np.median(ratios))
    se = _bootstrap_se(_row_medians, gx, se_x, gy, se_y, rng)
    return Estimate(method="simple_median", theta_hat=theta, se=se, n_iv=gx.size)


def weighted_median(summaries, rng=None) -> Estimate:
    """Interpolated 50th weighted percentile of the ratio estimates.

    Weights are gamma_x^2 / se_y^2.  Ratios are sorted, cumulative weights
    are normalized and centered (cum - w/2), and the estimate interpolates
    linearly at probability 0.5.  The bootstrap reuses the observed weights.
    """
    ratios, gx, se_x, gy, se_y = _ratio_inputs(summaries)
    if np.any(se_y <= 0):
        raise EstimationError("degenerate weights: an outcome standard error is zero")
    weights = gx * gx / (se_y * se_y)
    theta = float(_weighted_median(ratios[None, :], weights)[0])
    se = _bootstrap_se(lambda r: _weighted_median(r, weights), gx, se_x, gy, se_y, rng)
    return Estimate(method="weighted_median", theta_hat=theta, se=se, n_iv=gx.size)
