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

A Monte-Carlo replicate and `tsre estimate` never hold the n x m float64
standardized matrix.  They read the int8 dosages in column blocks of about
_CHUNK_CELLS cells (2 MB), each cast into one reused float64 buffer and
centred on its column means there.  Two reads do all the work:
_standardized_product gives Z @ W for the columns that carry effects (the
phenotypes), and _read_dosages takes, in one pass over every column, the
column means and sds, the products of the centred traits with the
standardized columns and the row norms d_i = |z_i|^2/m.  Neither divides a
cell by its sd; each scales its products instead.  _read_dosages returns a
_DosageSource, the dosages of the polymorphic columns with their means and
sds, which recomputes only the columns a later product needs.  A table4
null_50000 replicate (n=1000, m=53000) holds 53 MB of dosages and two 2 MB
blocks instead of a 424 MB matrix.  standardize, which holds the matrix
whole, serves `tsre grm`, `tsre simulate` and the GRM of --grm-cutoff.

When the process may use a second CPU and is not a worker of a process
pool (run_scenario at --threads >= 2), the sampler's row chunks and the
reads' column blocks are shared out between the calling thread and a helper
thread started and joined inside the call (_share_out); NumPy's generators,
ufuncs and BLAS calls release the GIL.  Each thread takes the next chunk or
block as it finishes the last, so a thread whose CPU is slow does less.  A
sampler thread draws each chunk from its own copy of the PCG64 bit
generator, advanced to the chunk's first uniform, and a read holds each
block's term until it can add them all in block order.  So the bits depend
neither on the sharing nor on the CPU count.  The harness shares a
replicate's heavy median bootstraps out through _share_out in the same way,
one whole job at a time (harness._replicate_outcomes).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import struct
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

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
# Cells per chunk of the dosage sampler and per column block of a dosage
# read, each in one reused 2 MB float64 buffer.
_CHUNK_CELLS = 1 << 18
# The largest double Generator.random returns.
_U_MAX = 1.0 - 2.0**-53
# Bit generators whose advance(k) skips the k 64-bit outputs that k doubles
# of Generator.random take (Philox's advance counts blocks of four).
_ADVANCEABLE = (np.random.PCG64, np.random.PCG64DXSM)
# Block terms a shared column read may hold until it adds them in order:
# 16 MB of float64.
_SHARED_HELD_CELLS = 1 << 21


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


@dataclass
class _DosageSource:
    """Standardized genotypes kept as the int8 dosages of the polymorphic
    columns plus their column means and sds (see _read_dosages)."""

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

    def columns(self, cols, order: str) -> np.ndarray:
        """Standardized columns cols (a slice or an index list) as a new
        float64 array in memory order "C" or "F"."""
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
    return GenotypeMatrix(dosages=dosages, variant_ids=list(_variant_ids(m)))


@lru_cache(maxsize=4)
def _variant_ids(m: int) -> tuple[str, ...]:
    """v00001, v00002, ...: the ids of m simulated variants, built once per m."""
    width = max(5, len(str(m)))
    return tuple(f"v{k:0{width}d}" for k in range(1, m + 1))


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

    With a PCG64 generator and a spare CPU the chunks are shared out between
    the calling thread and a helper (_share_out): each thread draws a chunk
    from its own copy of the bit generator, advanced to the chunk's first
    uniform, and the caller's generator is then advanced past them all.  A
    chunk in which NumPy would redraw a cell (about 1e-16 per cell, and only
    in columns where the largest uniform passes all three cut points) ends
    the sharing: the whole draw is made again in one thread from the saved
    state, where such a chunk is drawn by rng.binomial itself.
    """
    m = maf.size
    flip, qn, px1, px2 = _binomial2_cuts(maf)
    risky = ((_U_MAX - qn) - px1) > px2
    cuts = flip, qn, px1, px2, (qn[risky], px1[risky], px2[risky])
    out = np.empty((n, m), dtype=np.int8)
    rows = max(1, _CHUNK_CELLS // m)
    chunks = -(-n // rows)
    bits = rng.bit_generator
    state = bits.state
    if chunks > 1 and type(bits) in _ADVANCEABLE and _spare_cpu():
        redraw = []

        def start():
            copy = type(bits)()
            copy.state = state
            own = np.random.Generator(copy)
            u_buf, hit_buf = np.empty((rows, m)), np.empty((rows, m), dtype=bool)
            at = 0  # uniforms this copy has passed

            def draw(k):
                nonlocal at
                dose = out[k * rows : (k + 1) * rows]
                copy.advance(k * rows * m - at)
                at = (k * rows + len(dose)) * m
                if redraw or not _fill(dose, u_buf, hit_buf, cuts, own):
                    redraw.append(k)

            return draw

        _share_out(start, chunks, True)
        if not redraw:
            bits.advance(n * m)
            # advance dropped the caller's buffered 32-bit half; random() never uses it
            final = bits.state
            final["has_uint32"], final["uinteger"] = state["has_uint32"], state["uinteger"]
            bits.state = final
            return out
        bits.state = state
    u_buf, hit_buf = np.empty((min(rows, n), m)), np.empty((min(rows, n), m), dtype=bool)
    for k in range(chunks):
        dose = out[k * rows : (k + 1) * rows]
        if not _fill(dose, u_buf, hit_buf, cuts, rng):
            rng.bit_generator.state = state
            dose[...] = rng.binomial(2, maf, size=dose.shape)
        state = rng.bit_generator.state
    return out


def _fill(dose: np.ndarray, u_buf, hit_buf, cuts, rng) -> bool:
    """Fill the chunk dose from len(dose) rows of rng's uniforms and the
    _binomial2 cut points cuts, through the buffers u_buf and hit_buf; False,
    with dose unfilled, when NumPy would redraw a cell of the chunk."""
    flip, qn, px1, px2, risky_cuts = cuts
    u, hit = u_buf[: len(dose)], hit_buf[: len(dose)]
    rng.random(out=u)
    if _redraw_possible(u, *risky_cuts):
        return False
    u -= qn  # positive exactly when U > qn
    np.greater(u, 0.0, out=dose)
    np.greater(u, px1, out=hit)
    dose ^= flip  # 2 - X in the flipped columns
    hit ^= flip
    dose += hit
    return True


def _spare_cpu() -> bool:
    """Whether a helper thread may find a CPU of its own: the process may run
    on more than one CPU, and it is not a worker of a multiprocessing pool,
    such as run_scenario's at --threads >= 2, whose workers already take the
    CPUs it was given."""
    if multiprocessing.parent_process() is not None:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _share_out(start, count: int, shared: bool) -> None:
    """work(k) for k in range(count), work = start() being one thread's own.

    When shared, the calling thread and a helper thread, started and joined
    here, each take the next k as they finish the last, so a thread whose CPU
    is slow or taken by another process does less of the work; else the
    calling thread does it all.  The first exception stops both threads and
    is raised here, so no thread outlives the call.
    """
    if not shared:
        work = start()
        for k in range(count):
            work(k)
        return
    ks = iter(range(count))  # each next() is atomic under the GIL
    failed = []

    def run():
        try:
            work = start()
            for k in ks:
                if failed:
                    return
                work(k)
        except BaseException:
            failed.append(True)
            raise

    with ThreadPoolExecutor(max_workers=1) as helper:
        second = helper.submit(run)
        run()
        second.result()


def standardize(gm: GenotypeMatrix) -> StandardizedGenotypes:
    """Center and scale each column to unit variance (1/n denominator).

    Monomorphic columns carry no information and would divide by zero, so
    they are dropped and their original indices recorded.
    """
    values = gm.dosages.astype(np.float64)
    values -= values.mean(axis=0)
    sd = np.sqrt(np.einsum("ij,ij->j", values, values) / len(values))
    keep, kept_ids, dropped = _polymorphic(gm, sd)
    if dropped:
        # a boolean column selection comes back Fortran-ordered
        values = np.ascontiguousarray(values[:, keep])
    values /= sd[keep]
    return StandardizedGenotypes(values=values, variant_ids=kept_ids, dropped_variants=dropped)


def _polymorphic(gm: GenotypeMatrix, sd: np.ndarray):
    """(keep mask, kept ids, dropped indices) for column sds sd; a DataError
    when every column is monomorphic."""
    keep = sd > 0.0
    if not keep.any():
        raise DataError("all variants are monomorphic; nothing to standardize")
    kept_ids = [v for v, k in zip(gm.variant_ids, keep) if k]
    return keep, kept_ids, np.flatnonzero(~keep).tolist()


def _block_sum(dosages: np.ndarray, shape: tuple, term) -> np.ndarray:
    """The sum, in block order, of term(c0, c1, c, mean, ss) over column
    blocks [c0, c1) of dosages of about _CHUNK_CELLS cells: c is the block
    cast into a reused float64 buffer and centred on its column means, ss its
    column sums of squares, and each term an array of the given shape.

    With a spare CPU the blocks are shared out between the calling thread
    and a helper (_share_out), each with its own buffer, so anything else
    term writes must go to its own block's columns.  Each block's term is
    then held in its own row and the rows are added in block order, so the
    sum keeps the bits of one thread; a read that would hold more than
    _SHARED_HELD_CELLS cells runs in one thread.
    """
    n, m = dosages.shape
    width = max(1, _CHUNK_CELLS // n)
    blocks = -(-m // width)
    shared = 1 < blocks and blocks * math.prod(shape) <= _SHARED_HELD_CELLS and _spare_cpu()
    total = np.zeros(shape)
    held = np.empty((blocks, *shape)) if shared else None

    def start():
        buf = np.empty(n * min(width, m))

        def read(k):
            c0, c1 = k * width, min(k * width + width, m)
            c = buf[: n * (c1 - c0)].reshape(n, c1 - c0)
            np.copyto(c, dosages[:, c0:c1])
            mean = c.mean(axis=0)
            c -= mean
            t = term(c0, c1, c, mean, np.einsum("ij,ij->j", c, c))
            if shared:
                held[k] = t
            else:
                np.add(total, t, out=total)

        return read

    _share_out(start, blocks, shared)
    if shared:
        for t in held:
            total += t
    return total


def _standardized_product(dosages: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Z @ w for Z the standardized columns of dosages, read in int8 column
    blocks; a monomorphic column, which has no standardized form, is a
    DataError."""
    n = dosages.shape[0]

    def term(c0, c1, c, _, ss):
        if not ss.all():
            raise DataError("cannot standardize a monomorphic column")
        return c @ (w[c0:c1] / np.sqrt(ss / n)[:, None])

    return _block_sum(dosages, (n, w.shape[1]), term)


def _read_dosages(gm: GenotypeMatrix, traits: np.ndarray):
    """One read of gm's dosages in int8 column blocks.

    traits is a (k, n) array of centred traits.  Returns (source, gram,
    products, d) over the polymorphic columns: their _DosageSource, their
    Grams, the (k, m) products traits @ Z, and the row norms
    d_i = |z_i|^2 / m.  Monomorphic columns are dropped as in standardize.
    """
    n, m = gm.n, gm.m
    mean, ss, raw = np.empty(m), np.empty(m), np.empty((len(traits), m))

    def term(c0, c1, c, mu, s):
        mean[c0:c1], ss[c0:c1] = mu, s
        raw[:, c0:c1] = traits @ c
        c *= c
        return c @ np.divide(n, s, out=np.zeros_like(s), where=s > 0.0)  # 1/sd^2

    d = _block_sum(gm.dosages, (n,), term)
    sd = np.sqrt(ss / n)
    keep, kept_ids, dropped = _polymorphic(gm, sd)
    dosages = np.compress(keep, gm.dosages, axis=1) if dropped else gm.dosages
    sd = sd[keep]
    source = _DosageSource(dosages, mean[keep], sd, kept_ids, dropped)
    return source, ss[keep] / (sd * sd), raw[:, keep] / sd, d / sd.size


def _row_norms(z: np.ndarray) -> np.ndarray:
    """d_i = |z_i|^2 / m, the GRM diagonal, from standardized columns z."""
    return np.einsum("ij,ij->i", z, z) / z.shape[1]


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
