"""Per-variant summary statistics and instrument selection.

Each variant is regressed marginally against the centered exposure and the
centered outcome (slope through the origin, residual df = n - 2, matching a
regression with intercept on uncentered data).  Selection operates purely on
the resulting summary rows, so downstream estimators can run from a summary
CSV with no genotype access.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass

import numpy as np
from scipy.special import stdtr

from .errors import DataError, EstimationError, centre_traits, finite_float, read_csv, write_csv
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


def _marginal(z: np.ndarray, gram: np.ndarray, trait: np.ndarray, n: int):
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
    xc, yc = centre_traits(n, x, y)
    gram = np.einsum("ij,ij->j", std.values, std.values)
    gx, se_x = _marginal(std.values, gram, xc, n)
    gy, se_y = _marginal(std.values, gram, yc, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.abs(gx) / se_x
    p_x = 2.0 * stdtr(n - 2, -tstat)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, _CSV_HEADER, map(astuple, summaries))


def load_summaries(path) -> list[VariantSummary]:
    rows = read_csv(path)
    header = next(rows)
    if header != _CSV_HEADER:
        raise DataError(f"{path}: unexpected summary header {header}")
    return [
        VariantSummary(ident, *(finite_float(text, path, lineno) for text in numbers))
        for lineno, (ident, *numbers) in rows
    ]
