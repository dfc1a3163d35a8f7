"""Per-variant summary statistics and instrument selection.

Each variant is regressed marginally against the centered exposure and the
centered outcome (slope through the origin, residual df = n - 2, matching a
regression with intercept on uncentered data).  The summaries are one
record array of SUMMARY_DTYPE, a row per variant whose fields read as
attributes (s[k].gamma_x).  Selection operates purely on its fields, so
downstream estimators can run from a summary CSV with no genotype access.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.special import stdtr

from .errors import DataError, EstimationError, centre_traits, finite_float, read_csv, write_csv
from .genotype import StandardizedGenotypes

__all__ = [
    "SUMMARY_DTYPE",
    "per_variant_regression",
    "select_top_k",
    "select_by_pvalue",
    "save_summaries",
    "load_summaries",
]

# One row per variant; the field names are also the summary CSV header.
SUMMARY_DTYPE = np.dtype(
    [
        ("variant_id", object),
        ("gamma_x", np.float64),
        ("se_x", np.float64),
        ("gamma_y", np.float64),
        ("se_y", np.float64),
        ("p_x", np.float64),
    ]
)


def _marginal(z: np.ndarray, gram: np.ndarray, trait: np.ndarray, n: int):
    slope = (z.T @ trait) / gram
    rss = np.maximum(trait @ trait - slope * slope * gram, 0.0)
    se = np.sqrt(rss / (n - 2) / gram)
    return slope, se


def per_variant_regression(
    std: StandardizedGenotypes, x: np.ndarray, y: np.ndarray
) -> np.recarray:
    """Marginal slope, standard error, and exposure p-value for every variant,
    as a SUMMARY_DTYPE record array in the column order of std.

    std is any standardized-genotype source (genotype module docstring); the
    Gram and the two products Z'x, Z'y are taken block by block."""
    n = std.n
    if n < 3:
        raise EstimationError("per-variant regression needs at least 3 individuals")
    xc, yc = centre_traits(n, x, y)
    parts = []
    for z in std.blocks():
        gram = np.einsum("ij,ij->j", z, z)
        parts.append((*_marginal(z, gram, xc, n), *_marginal(z, gram, yc, n)))
    gx, se_x, gy, se_y = (np.concatenate(field) for field in zip(*parts))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.abs(gx) / se_x
    p_x = 2.0 * stdtr(n - 2, -tstat)
    # an object array of the ids: a str array would drop trailing NULs
    ids = np.array(std.variant_ids, dtype=object)
    return np.rec.fromarrays([ids, gx, se_x, gy, se_y, p_x], dtype=SUMMARY_DTYPE)


def select_top_k(summaries, k: int) -> list[int]:
    """Indices of the k smallest exposure p-values.

    summaries is a SUMMARY_DTYPE array or a list of its rows.  Ties are
    broken by larger |gamma_x|, then by lower index.  Asking for more
    variants than exist returns everything with a warning.
    """
    if len(summaries) == 0:
        raise DataError("cannot select from an empty summary list")
    if k < 1:
        raise DataError("k must be at least 1")
    if k > len(summaries):
        warnings.warn(
            f"requested top {k} variants but only {len(summaries)} are available; using all",
            stacklevel=2,
        )
        k = len(summaries)
    s = np.asarray(summaries)
    order = np.lexsort((np.arange(s.size), -np.abs(s["gamma_x"]), s["p_x"]))
    return order[:k].tolist()


def select_by_pvalue(summaries, alpha: float) -> list[int]:
    """Indices with exposure p-value below alpha, in original order."""
    if len(summaries) == 0:
        raise DataError("cannot select from an empty summary list")
    if not 0.0 < alpha <= 1.0:
        raise DataError("selection threshold must lie in (0, 1]")
    return np.flatnonzero(np.asarray(summaries)["p_x"] < alpha).tolist()


def save_summaries(summaries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, SUMMARY_DTYPE.names, np.asarray(summaries).tolist())


def load_summaries(path) -> np.recarray:
    rows = read_csv(path)
    header = next(rows)
    if tuple(header) != SUMMARY_DTYPE.names:
        raise DataError(f"{path}: unexpected summary header {header}")
    return np.rec.fromrecords(
        [
            (ident, *(finite_float(text, path, lineno) for text in numbers))
            for lineno, (ident, *numbers) in rows
        ],
        dtype=SUMMARY_DTYPE,
    )
