"""Per-variant summary statistics and instrument selection.

Each variant is regressed marginally against the centered exposure and the
centered outcome (slope through the origin, residual df = n - 2, matching a
regression with intercept on uncentered data).  The summaries are one
record array of SUMMARY_DTYPE, a row per variant whose fields read as
attributes (s[k].gamma_x).  Selection operates purely on its fields.
per_variant_regression reads a standardized matrix; replicates, `tsre
estimate` and tsre_estimate on genotypes make the same records from one
read of the int8 dosages (_dosage_summaries, genotype module docstring).
SciPy's stdtr, behind each p-value, is imported by _records on its first
call, so a command that makes no summaries never loads SciPy.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DataError, EstimationError, centre_traits
from .genotype import GenotypeMatrix, StandardizedGenotypes, _read_dosages

__all__ = [
    "SUMMARY_DTYPE",
    "per_variant_regression",
    "select_top_k",
    "select_by_pvalue",
]

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


def _marginal(product: np.ndarray, gram: np.ndarray, trait: np.ndarray, n: int):
    slope = product / gram
    rss = np.maximum(trait @ trait - slope * slope * gram, 0.0)
    se = np.sqrt(rss / (n - 2) / gram)
    return slope, se


def _check_n(n: int) -> None:
    if n < 3:
        raise EstimationError("per-variant regression needs at least 3 individuals")


def _records(ids, gram, u, v, xc, yc) -> np.recarray:
    """The summaries of variants with Grams gram and products u = Z'xc and
    v = Z'yc with the centred traits."""
    # imported here, at the first p-value: scipy.special adds about 0.2 s to `import tsre`
    from scipy.special import stdtr

    n = xc.size
    # np.zeros, not np.rec.fromarrays: its np.empty fills an object field one
    # slot at a time, about 15 ms of a 53000-variant replicate
    out = np.zeros(len(ids), SUMMARY_DTYPE)
    # an object field for the ids: a str field would drop trailing NULs
    out["variant_id"] = ids
    out["gamma_x"], out["se_x"] = _marginal(u, gram, xc, n)
    out["gamma_y"], out["se_y"] = _marginal(v, gram, yc, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.abs(out["gamma_x"]) / out["se_x"]
    out["p_x"] = 2.0 * stdtr(n - 2, -tstat)
    return out.view(np.recarray)


def per_variant_regression(
    std: StandardizedGenotypes, x: np.ndarray, y: np.ndarray
) -> np.recarray:
    """Marginal slope, standard error, and exposure p-value for every variant,
    as a SUMMARY_DTYPE record array in the column order of std."""
    _check_n(std.n)
    xc, yc = centre_traits(std.n, x, y)
    z = std.values
    gram = np.einsum("ij,ij->j", z, z)
    return _records(std.variant_ids, gram, z.T @ xc, z.T @ yc, xc, yc)


def _dosage_summaries(gm: GenotypeMatrix, x: np.ndarray, y: np.ndarray):
    """(summaries, source, d): per_variant_regression of x and y on the
    standardized polymorphic columns of gm, made in one read of its int8
    dosages together with their _DosageSource and row norms d (genotype
    module docstring)."""
    _check_n(gm.n)
    xc, yc = centre_traits(gm.n, x, y)
    source, gram, (u, v), d = _read_dosages(gm, np.stack([xc, yc]))
    return _records(source.variant_ids, gram, u, v, xc, yc), source, d


def select_top_k(summaries, k: int) -> list[int]:
    """Indices of the k smallest exposure p-values.

    summaries is a SUMMARY_DTYPE array or a list of its rows.  Ties are
    broken by larger |gamma_x|, then by lower index.  Asking for more
    variants than exist returns every index in column order, as 'all' would
    use them, with a warning.
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
        return list(range(len(summaries)))
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
