"""Genotype containers, standardization, and the genetic relationship matrix.

Dosage matrices hold biallelic counts in {0, 1, 2} with individuals in rows
and variants in columns.  Standardization centers each column and scales it
to unit variance with the 1/n convention, so a standardized column g obeys
sum(g^2) = n and the relationship matrix A = Z Z' / m has trace exactly n.
A is stored as its packed lower triangle (diagonal included, row-major),
which is all the downstream pairwise machinery ever reads.

Simulated dosages, and the state the generator is left in, are bit for bit
those of ``rng.binomial(2, maf, size=(n, m))``.  For two trials NumPy always
inverts the CDF with one uniform per cell, drawn in C order exactly as
``rng.random`` draws them, so comparing each uniform with the same two cut
points reproduces its counts at a tenth of its cost.

A Monte-Carlo replicate reads its standardized genotypes from one source
with two methods: ``blocks()`` yields the standardized matrix as column
blocks, and ``columns(cols, order)`` copies out the columns a product needs.
The phenotypes copy out the columns of groups b, c and d on either route,
so only the other columns count: while they hold at most _HELD_CELLS cells
(n*(m - m_b - m_c - m_d) <= 2^23, 64 MB of float64) the source is
``standardize(gm)``, held whole as its one block.  Above that it is a
_StreamedGenotypes: the int8 dosages of the polymorphic columns plus their
column means and sds, found in one pass over int8 column blocks, from which
every pass recomputes float64 blocks of about 2^18 cells (2 MB).  A table4
null_50000 replicate (n=1000, m=53000, 50000 of them in group a) then holds
53 MB of dosages and one 2 MB block instead of a 424 MB float64 matrix; an
s3 n10000 row (n=10000, m=1000, all in group b) would copy its whole matrix
for the phenotypes anyway, so it is held.  Both routes compute through
one helper, _centred, so a streamed value equals the held one bit for bit.

Each block starts at a multiple of 64 columns.  A BLAS product over a block
treats each column by its place in the block: in a probe, products over
blocks starting at multiples of 8 gave the bits of the whole-matrix product
and blocks 131 columns wide did not.  A last block one column wide joins the
block before it, because einsum sums a lone column in another order.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, EstimationError, read_csv, write_csv

__all__ = [
    "GenotypeMatrix", "StandardizedGenotypes", "Grm", "simulate_genotypes",
    "standardize", "compute_grm", "filter_related", "load_genotypes", "save_genotypes",
    "load_grm", "save_grm",
]

_GRM_MAGIC = b"GRM1"
_PANEL_ROWS = 256
_DOSAGES = frozenset("012")
# Cells per chunk of the dosage sampler (one reused 2 MB float64 buffer) and
# per column block of a streamed standardized matrix.
_CHUNK_CELLS = 1 << 18
# Most float64 cells a replicate holds whole beyond the columns it copies
# out anyway (see _standardized_source).
_HELD_CELLS = 1 << 23
# Column blocks start at multiples of this (see the module docstring).
_BLOCK_ALIGN = 64
# The largest double Generator.random returns.
_U_MAX = 1.0 - 2.0**-53


def _repeated(ids: list[str]) -> str | None:
    """The first id that occurs more than once, or None."""
    if len(set(ids)) == len(ids):
        return None
    return next(v for v, k in Counter(ids).items() if k > 1)


@dataclass
class GenotypeMatrix:
    """Raw dosages plus variant bookkeeping; each variant id names one column."""

    dosages: np.ndarray
    variant_ids: list[str]
    individual_ids: list[str] | None = None

    def __post_init__(self):
        self.dosages = np.asarray(self.dosages)
        if self.dosages.ndim != 2:
            raise DataError("dosage matrix must be 2-dimensional")
        if self.dosages.shape[1] != len(self.variant_ids):
            raise DataError("variant id count does not match dosage columns")
        dup = _repeated(self.variant_ids)
        if dup is not None:
            raise DataError(f"variant id {dup!r} names more than one column")

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

    def blocks(self):
        """The standardized matrix as column blocks: values is the one block."""
        return (self.values,)

    def columns(self, cols, order: str) -> np.ndarray:
        """Columns cols (a slice or an index list) in memory order "C" or "F";
        a column slice in "C" order is a view of values."""
        picked = self.values[:, cols]
        if isinstance(cols, slice) and order == "C":
            return picked  # each row of a column slice is contiguous
        return np.asarray(picked, order=order)


@dataclass
class _StreamedGenotypes:
    """Standardized genotypes kept as the int8 dosages of the polymorphic
    columns plus their column means and sds.  Every pass recomputes float64
    columns from the dosages with the arithmetic of standardize."""

    dosages: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    variant_ids: list[str]
    dropped_variants: list[int]

    @property
    def n(self) -> int:
        return self.dosages.shape[0]

    @property
    def m(self) -> int:
        return self.dosages.shape[1]

    def blocks(self):
        """Standardized column blocks of about _CHUNK_CELLS cells, in order."""
        for c0, c1 in _column_blocks(self.n, self.m):
            yield self.columns(slice(c0, c1), "C")

    def columns(self, cols, order: str) -> np.ndarray:
        """Columns cols (a slice or an index list) as a new array in memory
        order "C" or "F"; its bits are those of standardize(gm).values[:, cols]."""
        values = self.dosages[:, cols].astype(np.float64, order=order)
        values -= self.mean[cols]
        values /= self.sd[cols]
        return values


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
        if self.m_effective < 1:
            raise DataError(f"a GRM needs m_effective >= 1, got {self.m_effective}")

    def diagonal(self) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.int64)
        return self.lower_triangle[idx * (idx + 1) // 2 + idx]


def simulate_genotypes(n: int, m: int, maf_low: float, maf_high: float, rng) -> GenotypeMatrix:
    """Draw m independent variants for n individuals.

    Allele frequencies are uniform on [maf_low, maf_high] and dosages are
    Binomial(2, f_k), independent across individuals and variants.  rng is a
    numpy Generator.  The dosages and the generator's state afterwards are
    bit-identical to ``rng.uniform`` followed by ``rng.binomial(2, maf,
    size=(n, m)).astype(np.int8)``: NumPy draws each Binomial(2, p) cell by
    inversion from one uniform, and ``_binomial2`` draws the same uniforms
    and applies the same cut points (see the module docstring).
    """
    if n < 1 or m < 1:
        raise DataError("need at least one individual and one variant")
    if not (0.0 < maf_low <= maf_high < 1.0):
        raise DataError("allele frequency range must satisfy 0 < low <= high < 1")
    maf = rng.uniform(maf_low, maf_high, size=m)
    dosages = _binomial2(maf, n, rng)
    width = max(5, len(str(m)))
    ids = [f"v{k:0{width}d}" for k in range(1, m + 1)]
    return GenotypeMatrix(dosages=dosages, variant_ids=ids)


def _binomial2_cuts(maf: np.ndarray):
    """Per-column constants of NumPy's Binomial(2, p) inversion.

    NumPy counts X = 0 while U <= qn, then X = 1 while U - qn <= px1, then
    X = 2 while (U - qn) - px1 <= px2, and redraws U beyond that.  For p > 0.5
    it inverts on 1 - p and returns 2 - X, so those columns are flipped.  log
    and exp come from math, which calls the libm functions NumPy's C code
    calls; np.log and np.exp may differ from them in the last bit.
    """
    flip = maf > 0.5
    p = np.where(flip, 1.0 - maf, maf)
    q = 1.0 - p
    log_q = np.fromiter(map(math.log, q.tolist()), np.float64, count=q.size)
    qn = np.fromiter(map(math.exp, (2.0 * log_q).tolist()), np.float64, count=q.size)
    px1 = 2.0 * p * qn / q
    px2 = p * px1 / (2.0 * q)
    return flip, qn, px1, px2


def _redraw_possible(u: np.ndarray, qn, px1, px2) -> bool:
    """Whether NumPy would redraw some cell of the uniforms u in any column.

    Rounding is monotone, so ((U - qn) - px1) never decreases as U grows:
    checking the chunk's largest U against every column is exact for the
    whole chunk.
    """
    return bool(np.any(((u.max() - qn) - px1) > px2))


def _binomial2(maf: np.ndarray, n: int, rng) -> np.ndarray:
    """rng.binomial(2, maf, size=(n, maf.size)) as int8, drawn in row chunks.

    Each chunk draws its uniforms with rng.random and counts the cut points
    they pass.  A chunk in which NumPy would redraw a cell (about 1e-16 per
    cell, and only in columns where the largest uniform passes all three cut
    points) is drawn again by rng.binomial itself from the saved state.
    """
    m = maf.size
    flip, qn, px1, px2 = _binomial2_cuts(maf)
    risky = ((_U_MAX - qn) - px1) > px2
    risky_cuts = qn[risky], px1[risky], px2[risky]
    out = np.empty((n, m), dtype=np.int8)
    rows = max(1, _CHUNK_CELLS // m)
    u_buf = np.empty((rows, m))
    hit_buf = np.empty((rows, m), dtype=bool)
    for start in range(0, n, rows):
        dose = out[start : start + rows]
        u, hit = u_buf[: len(dose)], hit_buf[: len(dose)]
        state = rng.bit_generator.state
        rng.random(out=u)
        if _redraw_possible(u, *risky_cuts):
            rng.bit_generator.state = state
            dose[...] = rng.binomial(2, maf, size=dose.shape)
            continue
        u -= qn  # positive exactly when U > qn
        np.greater(u, 0.0, out=dose)
        np.greater(u, px1, out=hit)
        dose ^= flip  # 2 - X in the flipped columns
        hit ^= flip
        dose += hit
    return out


def standardize(gm: GenotypeMatrix) -> StandardizedGenotypes:
    """Center and scale each column to unit variance (1/n denominator).

    Monomorphic columns carry no information and would divide by zero, so
    they are dropped and their original indices recorded.
    """
    values, _, sd = _centred(gm.dosages)
    keep, kept_ids, dropped = _polymorphic(gm, sd)
    if dropped:
        # a boolean column selection comes back Fortran-ordered
        values = np.ascontiguousarray(values[:, keep])
    values /= sd[keep]
    return StandardizedGenotypes(values=values, variant_ids=kept_ids, dropped_variants=dropped)


def _centred(dosages: np.ndarray):
    """(values, mean, sd): the dosages as float64 centred on their column
    means, those means, and the column sds with the 1/n denominator."""
    values = dosages.astype(np.float64)
    mean = values.mean(axis=0)
    values -= mean
    sd = np.sqrt(np.einsum("ij,ij->j", values, values) / len(values))
    return values, mean, sd


def _polymorphic(gm: GenotypeMatrix, sd: np.ndarray):
    """(keep mask, kept ids, dropped indices) for column sds sd; a DataError
    when every column is monomorphic."""
    keep = sd > 0.0
    if not keep.any():
        raise DataError("all variants are monomorphic; nothing to standardize")
    kept_ids = [v for v, k in zip(gm.variant_ids, keep) if k]
    return keep, kept_ids, np.flatnonzero(~keep).tolist()


def _column_blocks(n: int, m: int) -> list[tuple[int, int]]:
    """Column ranges [c0, c1) of about _CHUNK_CELLS cells, each starting at a
    multiple of _BLOCK_ALIGN; a last range one column wide joins the one
    before it (see the module docstring)."""
    width = max(1, _CHUNK_CELLS // (n * _BLOCK_ALIGN)) * _BLOCK_ALIGN
    starts = list(range(0, m, width))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [m]))


def _standardized_source(
    gm: GenotypeMatrix, copied: int = 0
) -> StandardizedGenotypes | _StreamedGenotypes:
    """The standardized genotypes of gm as a replicate reads them.

    copied is the number of columns the caller copies out as float64 anyway
    (a replicate's phenotype groups b, c and d).  Streaming saves only the
    other n*(m - copied) cells, so up to _HELD_CELLS of them the source is
    standardize(gm); above that it is a _StreamedGenotypes whose means and
    sds come from one pass over int8 column blocks.
    """
    if gm.n * (gm.m - copied) <= _HELD_CELLS:
        return standardize(gm)
    stats = [_centred(gm.dosages[:, c0:c1])[1:] for c0, c1 in _column_blocks(gm.n, gm.m)]
    mean, sd = (np.concatenate(part) for part in zip(*stats))
    keep, kept_ids, dropped = _polymorphic(gm, sd)
    dosages = np.compress(keep, gm.dosages, axis=1) if dropped else gm.dosages
    return _StreamedGenotypes(dosages, mean[keep], sd[keep], kept_ids, dropped)


def _row_norms(blocks) -> np.ndarray:
    """d_i = |z_i|^2 / m, the GRM diagonal, from the column blocks of a
    standardized matrix (std.blocks(), or one block of selected columns)."""
    d, m = 0.0, 0
    for z in blocks:
        d = d + np.einsum("ij,ij->i", z, z)
        m += z.shape[1]
    return d / m


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
    grm = Grm(n=n, lower_triangle=np.empty(n * (n + 1) // 2), m_effective=m_eff)
    for r0 in range(0, n, _PANEL_ROWS):
        _grm_panel(values, grm.lower_triangle, r0, min(r0 + _PANEL_ROWS, n), m_eff)
    return grm


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
    """Read a dosage CSV: each variant named once, every cell 0, 1 or 2."""
    rows = read_csv(path)
    header = next(rows)
    if header[:1] != ["id"] or len(header) < 2:
        raise DataError(f"{path}: genotype header must be 'id' and at least one variant id")
    variant_ids = header[1:]
    dup = _repeated(variant_ids)
    if dup is not None:
        raise DataError(f"{path}: genotype header repeats variant id {dup!r}")
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
    """Read a save_grm file; bad or non-finite content is a DataError naming it."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _GRM_MAGIC:
            raise DataError(f"{path}: not a GRM file (bad magic {magic!r})")
        head = fh.read(16)
        if len(head) != 16:
            raise DataError(f"{path}: truncated GRM header")
        n, m_eff = struct.unpack("<QQ", head)
        if m_eff < 1:
            raise DataError(f"{path}: GRM header has m_effective=0")
        expected = n * (n + 1) // 2
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * expected:
            raise DataError(
                f"{path}: triangle has {size} bytes, expected {8 * expected} for n={n}"
            )
        tri = np.fromfile(fh, dtype="<f8", count=expected)
    nonfinite = np.count_nonzero(~np.isfinite(tri))
    if nonfinite:
        raise DataError(f"{path}: {nonfinite} GRM entries are NaN or infinite")
    return Grm(
        n=int(n), lower_triangle=tri.astype(np.float64, copy=False), m_effective=int(m_eff)
    )
