"""Genotype containers, standardization, and the genetic relationship matrix.

Dosage matrices hold biallelic counts in {0, 1, 2} with individuals in rows
and variants in columns.  Standardization centers each column and scales it
to unit variance with the 1/n convention, so a standardized column g obeys
sum(g^2) = n and the relationship matrix A = Z Z' / m has trace exactly n.
A is stored as its packed lower triangle (diagonal included, row-major),
which is all the downstream pairwise machinery ever reads.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, EstimationError, read_csv, write_csv

__all__ = [
    "GenotypeMatrix",
    "StandardizedGenotypes",
    "Grm",
    "simulate_genotypes",
    "standardize",
    "compute_grm",
    "filter_related",
    "load_genotypes",
    "save_genotypes",
    "load_grm",
    "save_grm",
]

_GRM_MAGIC = b"GRM1"
_PANEL_ROWS = 256
_DOSAGES = frozenset("012")


@dataclass
class GenotypeMatrix:
    """Raw dosages plus variant bookkeeping."""

    dosages: np.ndarray
    variant_ids: list[str]
    individual_ids: list[str] | None = None

    def __post_init__(self):
        self.dosages = np.asarray(self.dosages)
        if self.dosages.ndim != 2:
            raise DataError("dosage matrix must be 2-dimensional")
        if self.dosages.shape[1] != len(self.variant_ids):
            raise DataError("variant id count does not match dosage columns")

    @property
    def n(self) -> int:
        return self.dosages.shape[0]

    @property
    def m(self) -> int:
        return self.dosages.shape[1]


@dataclass
class StandardizedGenotypes:
    """Column-standardized genotypes; monomorphic columns are dropped."""

    values: np.ndarray
    variant_ids: list[str]
    dropped_variants: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass
class Grm:
    """Genetic relationship matrix in packed lower-triangle storage."""

    n: int
    lower_triangle: np.ndarray
    m_effective: int

    def __post_init__(self):
        expected = self.n * (self.n + 1) // 2
        if self.lower_triangle.shape != (expected,):
            raise DataError(
                f"packed triangle has length {self.lower_triangle.shape}, expected ({expected},)"
            )

    def diagonal(self) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.int64)
        return self.lower_triangle[idx * (idx + 1) // 2 + idx]


def simulate_genotypes(n: int, m: int, maf_low: float, maf_high: float, rng) -> GenotypeMatrix:
    """Draw m independent variants for n individuals.

    Allele frequencies are uniform on [maf_low, maf_high] and dosages are
    Binomial(2, f_k), independent across individuals and variants.
    """
    if n < 1 or m < 1:
        raise DataError("need at least one individual and one variant")
    if not (0.0 < maf_low <= maf_high < 1.0):
        raise DataError("allele frequency range must satisfy 0 < low <= high < 1")
    maf = rng.uniform(maf_low, maf_high, size=m)
    dosages = rng.binomial(2, maf, size=(n, m)).astype(np.int8)
    width = max(5, len(str(m)))
    ids = [f"v{k:0{width}d}" for k in range(1, m + 1)]
    return GenotypeMatrix(dosages=dosages, variant_ids=ids)


def standardize(gm: GenotypeMatrix) -> StandardizedGenotypes:
    """Center and scale each column to unit variance (1/n denominator).

    Monomorphic columns carry no information and would divide by zero, so
    they are dropped and their original indices recorded.
    """
    values = gm.dosages.astype(np.float64)
    values -= values.mean(axis=0)
    sd = np.sqrt(np.einsum("ij,ij->j", values, values) / gm.n)
    keep = sd > 0.0
    dropped = np.flatnonzero(~keep)
    if not keep.any():
        raise DataError("all variants are monomorphic; nothing to standardize")
    if dropped.size:
        # a boolean column selection comes back Fortran-ordered
        values = np.ascontiguousarray(values[:, keep])
    values /= sd[keep]
    kept_ids = [v for v, k in zip(gm.variant_ids, keep) if k]
    return StandardizedGenotypes(
        values=values, variant_ids=kept_ids, dropped_variants=dropped.tolist()
    )


def _grm_panel(values: np.ndarray, tri: np.ndarray, r0: int, r1: int, m_eff: int) -> None:
    # One row panel: rows [r0, r1) against all columns up to the diagonal,
    # copied row by row (a boolean-mask copy gives the same bits but is about
    # three times slower on the panels of a 5000-row matrix).  A function of
    # its own so that each panel is freed before the next one is allocated.
    panel = values[r0:r1] @ values[:r1].T
    panel /= m_eff
    for i in range(r0, r1):
        off = i * (i + 1) // 2
        tri[off : off + i + 1] = panel[i - r0, : i + 1]


def compute_grm(std: StandardizedGenotypes) -> Grm:
    """A = Z Z' / m over the standardized variants, packed lower triangle.

    The computation is blocked into row panels, so no dense n x n matrix
    is ever held.
    """
    values = std.values
    n, m_eff = values.shape
    if m_eff < 1:
        raise DataError("need at least one retained variant to build a relationship matrix")
    tri = np.empty(n * (n + 1) // 2, dtype=np.float64)
    for r0 in range(0, n, _PANEL_ROWS):
        _grm_panel(values, tri, r0, min(r0 + _PANEL_ROWS, n), m_eff)
    return Grm(n=n, lower_triangle=tri, m_effective=m_eff)


def check_cutoff(cutoff: float) -> None:
    """A relatedness cutoff must be positive and finite (a ConfigError otherwise)."""
    if not 0.0 < cutoff < np.inf:
        raise ConfigError("relatedness cutoff must be positive and finite")


def filter_related(grm: Grm, cutoff: float) -> np.ndarray:
    """Greedily prune individuals until no off-diagonal |A_ij| >= cutoff.

    While violations remain, the individual involved in the most violating
    pairs is removed (ties go to the lower index).  Returns the retained
    indices in ascending order.
    """
    check_cutoff(cutoff)
    n = grm.n
    tri = grm.lower_triangle
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i in range(1, n):
        off = i * (i + 1) // 2
        row = tri[off : off + i]
        for j in np.flatnonzero(np.abs(row) >= cutoff):
            neighbors[i].add(int(j))
            neighbors[int(j)].add(i)
    degree = np.array([len(s) for s in neighbors], dtype=np.int64)
    removed = np.zeros(n, dtype=bool)
    while degree.max(initial=0) > 0:
        v = int(np.argmax(degree))  # argmax takes the lowest index on ties
        removed[v] = True
        degree[v] = 0
        for u in neighbors[v]:
            if not removed[u]:
                degree[u] -= 1
            neighbors[u].discard(v)
        neighbors[v] = set()
    retained = np.flatnonzero(~removed)
    if retained.size < 2:
        raise EstimationError(
            f"degenerate sample: relatedness cutoff {cutoff} leaves fewer than 2 individuals"
        )
    return retained


def save_genotypes(gm: GenotypeMatrix, path) -> None:
    """Write dosages as CSV: header `id,<variant ids>`, one row per individual."""
    ids = gm.individual_ids
    if ids is None:
        width = max(6, len(str(gm.n)))
        ids = [f"i{r:0{width}d}" for r in range(1, gm.n + 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(
            fh,
            ["id", *gm.variant_ids],
            ([ident, *row] for ident, row in zip(ids, gm.dosages.tolist())),
        )


def load_genotypes(path) -> GenotypeMatrix:
    """Read a dosage CSV; every cell must be one of 0, 1, 2."""
    rows = read_csv(path)
    header = next(rows)
    if header[:1] != ["id"] or len(header) < 2:
        raise DataError(f"{path}: genotype header must be 'id' and at least one variant id")
    variant_ids = header[1:]
    ids = []
    digits = bytearray()
    for lineno, (ident, *cells) in rows:
        if not _DOSAGES.issuperset(cells):
            c, cell = next((c, v) for c, v in enumerate(cells) if v not in _DOSAGES)
            raise DataError(
                f"{path}: line {lineno}, variant '{variant_ids[c]}': "
                f"dosage must be 0, 1, or 2 (got {cell!r})"
            )
        ids.append(ident)
        digits += "".join(cells).encode()
    dosages = np.frombuffer(digits, dtype=np.int8).reshape(len(ids), len(variant_ids))
    return GenotypeMatrix(
        dosages=dosages - np.int8(ord("0")), variant_ids=variant_ids, individual_ids=ids
    )


def save_grm(grm: Grm, path) -> None:
    """Binary layout: magic 'GRM1', n and m_effective as little-endian u64,
    then the packed lower triangle as little-endian f64."""
    with open(path, "wb") as fh:
        fh.write(_GRM_MAGIC)
        fh.write(struct.pack("<QQ", grm.n, grm.m_effective))
        fh.write(grm.lower_triangle.astype("<f8", copy=False).tobytes())


def load_grm(path) -> Grm:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _GRM_MAGIC:
            raise DataError(f"{path}: not a GRM file (bad magic {magic!r})")
        head = fh.read(16)
        if len(head) != 16:
            raise DataError(f"{path}: truncated GRM header")
        n, m_eff = struct.unpack("<QQ", head)
        expected = n * (n + 1) // 2
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * expected:
            raise DataError(
                f"{path}: triangle has {size} bytes, expected {8 * expected} for n={n}"
            )
        tri = np.fromfile(fh, dtype="<f8", count=expected)
    return Grm(
        n=int(n), lower_triangle=tri.astype(np.float64, copy=False), m_effective=int(m_eff)
    )
