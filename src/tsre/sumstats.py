"""Per-variant summary statistics and instrument selection.

Each variant is regressed marginally against the centered exposure and the
centered outcome (slope through the origin, residual df = n - 2, matching a
regression with intercept on uncentered data).  Selection operates purely on
the resulting summary rows, so downstream estimators can run from a summary
CSV with no genotype access.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import DataError, EstimationError, open_text
from .genotype import StandardizedGenotypes

__all__ = [
    "VariantSummary",
    "per_variant_regression",
    "select_top_k",
    "select_by_pvalue",
    "save_summaries",
    "load_summaries",
]

_CSV_HEADER = ["variant_id", "gamma_x", "se_x", "gamma_y", "se_y", "p_x"]


@dataclass
class VariantSummary:
    variant_id: str
    gamma_x: float
    se_x: float
    gamma_y: float
    se_y: float
    p_x: float


def _marginal(z: np.ndarray, trait: np.ndarray, n: int):
    gram = np.einsum("ij,ij->j", z, z)
    slope = (z.T @ trait) / gram
    rss = np.maximum(trait @ trait - slope * slope * gram, 0.0)
    se = np.sqrt(rss / (n - 2) / gram)
    return slope, se


def per_variant_regression(
    std: StandardizedGenotypes, x: np.ndarray, y: np.ndarray
) -> list[VariantSummary]:
    """Marginal slope, standard error, and exposure p-value for every variant."""
    n = std.n
    if n < 3:
        raise EstimationError("per-variant regression needs at least 3 individuals")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (n,) or y.shape != (n,):
        raise DataError("trait vectors must match the number of individuals")
    xc = x - x.mean()
    yc = y - y.mean()
    gx, se_x = _marginal(std.values, xc, n)
    gy, se_y = _marginal(std.values, yc, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.abs(gx) / se_x
    p_x = 2.0 * stats.t.sf(tstat, df=n - 2)
    # se 0 with slope 0 means a constant trait: no evidence either way.
    p_x = np.where(np.isnan(tstat), 1.0, p_x)
    return [
        VariantSummary(
            variant_id=vid,
            gamma_x=float(gx[k]),
            se_x=float(se_x[k]),
            gamma_y=float(gy[k]),
            se_y=float(se_y[k]),
            p_x=float(p_x[k]),
        )
        for k, vid in enumerate(std.variant_ids)
    ]


def select_top_k(summaries: list[VariantSummary], k: int) -> list[int]:
    """Indices of the k smallest exposure p-values.

    Ties are broken by larger |gamma_x|, then by lower index.  Asking for
    more variants than exist returns everything with a warning.
    """
    if not summaries:
        raise DataError("cannot select from an empty summary list")
    if k < 1:
        raise DataError("k must be at least 1")
    if k > len(summaries):
        warnings.warn(
            f"requested top {k} variants but only {len(summaries)} are available; using all",
            stacklevel=2,
        )
        k = len(summaries)
    p = np.array([s.p_x for s in summaries])
    mag = np.array([abs(s.gamma_x) for s in summaries])
    order = np.lexsort((np.arange(len(summaries)), -mag, p))
    return [int(i) for i in order[:k]]


def select_by_pvalue(summaries: list[VariantSummary], alpha: float) -> list[int]:
    """Indices with exposure p-value below alpha, in original order."""
    if not summaries:
        raise DataError("cannot select from an empty summary list")
    if not 0.0 < alpha <= 1.0:
        raise DataError("selection threshold must lie in (0, 1]")
    return [k for k, s in enumerate(summaries) if s.p_x < alpha]


def save_summaries(summaries: list[VariantSummary], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for s in summaries:
            writer.writerow(
                [s.variant_id, repr(s.gamma_x), repr(s.se_x), repr(s.gamma_y), repr(s.se_y), repr(s.p_x)]
            )


def load_summaries(path) -> list[VariantSummary]:
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty summary file") from None
        if header != _CSV_HEADER:
            raise DataError(f"{path}: unexpected summary header {header}")
        out = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(_CSV_HEADER):
                raise DataError(f"{path}: line {lineno}: expected {len(_CSV_HEADER)} fields")
            try:
                out.append(
                    VariantSummary(
                        variant_id=row[0],
                        gamma_x=float(row[1]),
                        se_x=float(row[2]),
                        gamma_y=float(row[3]),
                        se_y=float(row[4]),
                        p_x=float(row[5]),
                    )
                )
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric summary value") from None
    return out
