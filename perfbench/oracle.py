"""Correctness oracle: dense-NumPy references that share no code with the
package's estimators.

The pairwise estimator is recomputed from the raw int8 dosages: columns are
standardized here (1/n variance, monomorphic columns dropped), the full
relationship matrix A = Z Z'/m is built densely, and every pair sum is taken
over its strict lower triangle.  Neither tsre.kernels nor tsre.engine is
used.  IVW is recomputed from its closed formula on the selected summaries.

Tolerance: a value v matches its reference r when
|v - r| <= TOL * max(1, |r|), for theta_hat and se alike.  Both sides run the
same float64 arithmetic in a different order; on the benchmark's rows the
scaled differences stay below 1e-14.  TOL = 1e-8 leaves room for a later
reduction with more cancellation, and still flags a theta_hat moved by 1e-6
of its scale (the self-test checks this).
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-8
_BLOCK = 2048


def close(value, ref) -> bool:
    return abs(float(value) - ref) <= TOL * max(1.0, abs(ref))


def pair_matches(out, ref) -> bool:
    """An estimator output (theta_hat, se) against its reference pair."""
    return out is not None and close(out[0], ref[0]) and close(out[1], ref[1])


def finite_output(out) -> bool:
    """Both numbers convert with float() and are finite."""
    try:
        return all(math.isfinite(float(v)) for v in out)
    except (TypeError, ValueError):
        return False


def dense_grm(dosages: np.ndarray, cols=None) -> tuple[np.ndarray, int]:
    """(A, m): A = Z Z'/m over the m polymorphic columns, or over the subset
    cols of them (indexed among the polymorphic ones), built in blocks."""
    d = np.asarray(dosages)
    polymorphic = np.flatnonzero(d.min(axis=0) != d.max(axis=0))
    use = polymorphic if cols is None else polymorphic[np.asarray(cols)]
    n = d.shape[0]
    a = np.zeros((n, n))
    for start in range(0, use.size, _BLOCK):
        block = d[:, use[start : start + _BLOCK]].astype(np.float64)
        block -= block.mean(axis=0)
        block /= np.sqrt(np.mean(block * block, axis=0))
        a += block @ block.T
    a /= use.size
    return a, use.size


def tsre_reference(dosages, x, y, cols=None) -> tuple[float, float]:
    """(theta_hat, se) of the covariance-mode pairwise estimator."""
    a, m = dense_grm(dosages, cols)
    n = a.shape[0]
    lower = np.tril(a, -1)
    del a
    xc = np.asarray(x, dtype=np.float64) - np.mean(x)
    yc = np.asarray(y, dtype=np.float64) - np.mean(y)
    npairs = n * (n - 1) / 2
    s_a = float(lower.sum())
    lx = lower @ xc
    ly = lower @ yc
    s_axx = float(xc @ lx)
    s_axy = 0.5 * float(yc @ lx + xc @ ly)
    # sum over i > j of x_i x_j, and the symmetrised x_i y_j, by prefix sums
    s_xx = float(xc[1:] @ np.cumsum(xc)[:-1])
    s_xy = 0.5 * float(xc[1:] @ np.cumsum(yc)[:-1] + yc[1:] @ np.cumsum(xc)[:-1])
    den = s_axx - s_a * s_xx / npairs
    num = s_axy - s_a * s_xy / npairs
    theta = num / den
    cov_axx = den / npairs
    var_x = float(np.var(xc, ddof=1))
    var_r = float(np.var(yc - theta * xc, ddof=1))
    tau2 = var_x * var_r / (m * cov_axx**2)
    return theta, math.sqrt(tau2 / npairs)


def ivw_reference(summaries, mode: str) -> tuple[float, float]:
    """Closed-form IVW: theta = sum(w gx gy) / sum(w gx^2), w = se_y^-2,
    se = sum(w gx^2)^-1/2, inflated by sqrt(max(1, Q/(K-1))) in random mode."""
    gx = np.array([s.gamma_x for s in summaries])
    gy = np.array([s.gamma_y for s in summaries])
    w = 1.0 / np.array([s.se_y for s in summaries]) ** 2
    k = gx.size
    sxx = float(np.sum(w * gx * gx))
    theta = float(gy[0] / gx[0]) if k == 1 else float(np.sum(w * gx * gy)) / sxx
    se = 1.0 / math.sqrt(sxx)
    if mode == "random" and k >= 2:
        q = float(np.sum(w * (gy - theta * gx) ** 2))
        se *= math.sqrt(max(1.0, q / (k - 1)))
    return theta, se


def packed_matches(tri: np.ndarray, a: np.ndarray) -> bool:
    """A packed lower triangle (row-major, diagonal included) against A."""
    rows, cols = np.tril_indices(a.shape[0])
    ref = a[rows, cols]
    return tri.shape == ref.shape and bool(np.all(np.abs(tri - ref) <= TOL * np.maximum(1.0, np.abs(ref))))
