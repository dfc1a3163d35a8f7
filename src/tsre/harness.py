"""Monte-Carlo scenario runner, table replication targets, and the
real-data estimation pipeline.

A replication target is a named list of scenario rows; each row is run for a
number of replicates and every requested (method, selection) pair is
aggregated into mean / Monte-Carlo sd / mean reported se / bias / MSE.
Replicates are seeded independently of execution order and of the method
subset, so reruns and thread counts never change the emitted CSVs.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, fields
from typing import Callable

import numpy as np

from .engine import _summary_fit
from .errors import (
    ConfigError,
    DataError,
    EstimationError,
    TsreError,
    finite_float,
    read_csv,
    write_csv,
)
from .estimators import (
    N_BOOT,
    Estimate,
    _check_instruments,
    egger,
    ivw,
    simple_median,
    tsls,
    weighted_median,
)
from .genotype import (
    GenotypeMatrix,
    Grm,
    _DosageSource,
    _repeated,
    _row_norms,
    _share_out,
    check_cutoff,
    compute_grm,
    filter_related,
    load_genotypes,
    load_grm,
    simulate_genotypes,
    standardize,
)
from .simulate import ScenarioConfig, sample_effects, generate_phenotypes
from .sumstats import _dosage_summaries, select_by_pvalue, select_top_k

__all__ = [
    "ReplicationSpec", "ReplicateResult", "RealDataResult", "run_scenario",
    "reproduce_table", "estimate_real", "save_phenotype", "load_phenotype",
]

RESULT_HEADER = ["target", "row_id", "method", "selection", "mean", "sd_mc", "mean_se",
                 "bias", "mse", "reps", "reps_failed"]
LONG_HEADER = ["target", "row_id", "method", "selection", "rep", "estimate", "se"]

# Default comparator set for the builtin tables and the custom target; 2SLS
# runs only through `tsre estimate --method tsls`.
DEFAULT_METHODS = ("sm", "wm", "ivw", "egger", "tsre")
METHOD_TAGS = ("sm", "wm", "ivw", "ivw_fe", "egger", "tsre", "tsls")

_OMITTED_NOTE = "# omitted methods: divw, raps, lasso (not implemented)"


@dataclass(frozen=True)
class ReplicationSpec:
    """How often to run a row: replicate count and base seed; immutable and
    validated when built."""

    target: str = "custom"
    reps: int = 100
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.reps < 1:
            raise ConfigError("reps must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class ReplicateResult:
    """Aggregated Monte-Carlo outcome for one (row, method, selection)."""

    row_id: str
    method: str
    selection: str
    mean: float
    sd_mc: float
    mean_se: float
    bias: float
    mse: float
    reps: int
    reps_failed: int
    estimates: np.ndarray
    ses: np.ndarray
    rep_index: np.ndarray

    def csv_row(self, target: str) -> list:
        """This result's row of the results file, under RESULT_HEADER."""
        return [target, *(getattr(self, name) for name in RESULT_HEADER[1:])]


def parse_selection(text: str) -> tuple[str, int | float | None]:
    """Parse a selection spec: 'all', 'top:K', or 'pval:A'."""
    if text == "all":
        return "all", None
    kind, sep, value = text.partition(":")
    if sep and kind == "top":
        try:
            k = int(value)
        except ValueError:
            raise ConfigError(f"invalid top-K selection {text!r}") from None
        if k < 1:
            raise ConfigError("top-K selection needs K >= 1")
        return "top", k
    if sep and kind == "pval":
        try:
            alpha = float(value)
        except ValueError:
            raise ConfigError(f"invalid p-value selection {text!r}") from None
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("p-value selection needs 0 < alpha <= 1")
        return "pval", alpha
    raise ConfigError(
        f"unknown selection {text!r}; expected 'all', 'top:K', or 'pval:A'"
    )


def _check_jobs(jobs: list[tuple[str, str]]) -> None:
    """Reject an empty job list, unknown method tags and malformed selections."""
    if not jobs:
        raise ConfigError("at least one method is required")
    for tag, selection in jobs:
        if tag not in METHOD_TAGS:
            raise ConfigError(
                f"unknown method {tag!r}; choose from {', '.join(METHOD_TAGS)}"
            )
        parse_selection(selection)


def _select(summaries: np.recarray, selection: str) -> list[int] | None:
    """Indices picked by a selection, or None for 'all'.

    The summary rows come in standardized column order, so the indices are
    also the genotype columns of the picked variants.  A p-value threshold
    that keeps no variant is an EstimationError.
    """
    kind, value = parse_selection(selection)
    if kind == "all":
        return None
    if kind == "top":
        return select_top_k(summaries, int(value))
    cols = select_by_pvalue(summaries, float(value))
    if not cols:
        raise EstimationError(f"selection {selection!r} keeps no variants")
    return cols


def default_selection(tag: str) -> str:
    return "all" if tag == "tsre" else "top:20"


def _run_method(tag, cols, source, summaries, d, x, y, rng=None) -> Estimate:
    """Run one checked method on the columns cols that _select picked (None
    for 'all').

    summaries, source and d come from one read of the int8 dosages
    (sumstats._dosage_summaries).  tsre fits from the selected summaries
    plus the row norms of the selected columns, which on 'all' are d, so it
    builds no GRM and takes no product of the genotypes with the traits
    (engine._summary_fit).  tsls and tsre on a subset recompute only the
    standardized columns they select.  rng is the bootstrap stream of sm and
    wm; without one they draw from default_rng(0).
    """
    if tag == "tsls":
        # A Fortran-ordered column copy even for 'all': 2SLS on C-ordered
        # columns differs in the last bits.  K > n fails before anything is
        # copied.
        cols = np.arange(source.m) if cols is None else cols
        _check_instruments(source.n, len(cols))
        return tsls(source.columns(cols, "F"), x, y)
    selected = summaries if cols is None else summaries[cols]
    if tag == "tsre":
        if cols is not None:
            d = _row_norms(source.columns(cols, "C"))
        return _summary_fit(selected, d, x, y)
    if tag == "sm":
        return simple_median(selected, rng=rng)
    if tag == "wm":
        return weighted_median(selected, rng=rng)
    if tag == "egger":
        return egger(selected)
    return ivw(selected, mode="fixed" if tag == "ivw_fe" else "random")


# Least bootstrap size, in cells, of a median job that _replicate_outcomes
# shares out.  Measured on a 2-vCPU Xeon (BENCH_23.json, share_crossover):
# on table2 rows (m=200, seven methods) sharing two median jobs lost below
# 200000 cells and drew even at 200000; on an s3 row (m=1000) it won from
# 50000 cells up.  Sharing table2's jobs (top:20, 20000 cells) cut the
# comparators workload from 170 to 148 replicates/s.
_SHARE_MIN_CELLS = 200_000


def _replicate_outcomes(args):
    """Worker: simulate one replicate and run every method on it.

    Returns a list aligned with the (method, selection) jobs; entries are
    (theta_hat, se) or None for a failed estimator.  The replicate reads its
    int8 dosages twice, in column blocks: once for the phenotypes and once
    for the summaries and row norms (genotype module docstring), so it never
    holds its n x m float64 standardized matrix.  A monomorphic column,
    which the effect layout cannot drop, fails every job.  Each distinct
    selection is made once, in first-seen job order; one that fails fails
    only the jobs on it.

    The median jobs whose bootstrap draws _SHARE_MIN_CELLS cells or more on
    the variants they selected run first, in job order, through
    genotype._share_out, which shares them out between the calling thread
    and a helper when it shares at all; the calling thread then runs every
    other job, so 2SLS's threaded BLAS never runs beside a bootstrap.  Each
    job has its own bootstrap stream and writes its own slot, so the
    outcomes keep their bits.
    """
    cfg, jobs, seed, row_key, rep = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(row_key, rep)))
    gm = simulate_genotypes(cfg.n, cfg.m_total, cfg.maf_low, cfg.maf_high, rng)
    out = [None] * len(jobs)
    try:
        pheno = generate_phenotypes(gm, sample_effects(cfg, rng), cfg, rng)
        summaries, source, d = _dosage_summaries(gm, pheno.x, pheno.y)
        if source.dropped_variants:
            raise DataError("a replicate's variant groups hold a monomorphic column")
    except TsreError:
        return out

    picked = {}
    for selection in dict.fromkeys(sel for _, sel in jobs):
        try:
            picked[selection] = _select(summaries, selection)
        except TsreError:
            pass
    todo = [j for j, (_, selection) in enumerate(jobs) if selection in picked]

    def run(j):
        tag, selection = jobs[j]
        boot = None
        if tag in ("sm", "wm"):
            # keyed by the tag's place in METHOD_TAGS, so that a stream
            # depends on neither the order nor the subset of the methods
            key = (row_key, rep, 1000 + METHOD_TAGS.index(tag))
            boot = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        try:
            est = _run_method(tag, picked[selection], source, summaries, d, pheno.x, pheno.y, boot)
            out[j] = (est.theta_hat, est.se)
        except TsreError:
            pass

    def heavy_job(j):
        tag, selection = jobs[j]
        cols = picked[selection]
        k = source.m if cols is None else len(cols)
        return tag in ("sm", "wm") and N_BOOT * k >= _SHARE_MIN_CELLS

    heavy = [j for j in todo if heavy_job(j)]
    _share_out(lambda: lambda i: run(heavy[i]), len(heavy), True)
    for j in todo:
        if j not in heavy:
            run(j)
    return out


def _aggregate(row_id, cfg, tag, selection, outcomes, reps) -> ReplicateResult:
    kept = [(i, o) for i, o in enumerate(outcomes) if o is not None]
    rep_index = np.array([i for i, _ in kept], dtype=np.int64)
    est = np.array([o[0] for _, o in kept])
    ses = np.array([o[1] for _, o in kept])
    failed = reps - est.size
    if est.size == 0:
        mean = sd = mean_se = bias = mse = float("nan")
    else:
        mean = float(np.mean(est))
        sd = float(np.std(est, ddof=1)) if est.size > 1 else float("nan")
        mean_se = float(np.mean(ses))
        bias = mean - cfg.theta
        mse = float(np.mean((est - cfg.theta) ** 2))
    return ReplicateResult(
        row_id=row_id,
        method=tag,
        selection=selection,
        mean=mean,
        sd_mc=sd,
        mean_se=mean_se,
        bias=bias,
        mse=mse,
        reps=reps,
        reps_failed=failed,
        estimates=est,
        ses=ses,
        rep_index=rep_index,
    )


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError("threads must be at least 1")


def run_scenario(
    cfg: ScenarioConfig,
    spec: ReplicationSpec,
    row_key: int = 0,
    row_id: str = "custom",
    *,
    jobs: list[tuple[str, str]],
    threads: int = 1,
) -> list[ReplicateResult]:
    """Run one scenario row for all requested (method, selection) pairs.

    Per-replicate seeds depend only on (spec.seed, row_key, replicate
    index), so any thread count and any method subset reproduce identical
    numbers.
    """
    _check_threads(threads)
    _check_jobs(jobs)
    args = [(cfg, jobs, spec.seed, row_key, rep) for rep in range(spec.reps)]
    # a fork-started pool forks every worker at the first submit, busy or not
    workers = min(threads, spec.reps)
    if workers == 1:
        per_rep = [_replicate_outcomes(a) for a in args]
    else:
        # imported here, on the pool branch: ProcessPoolExecutor adds about 15 ms to `import tsre`
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, spec.reps // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_replicate_outcomes, args, chunksize=chunk))
    results = []
    for j, (tag, selection) in enumerate(jobs):
        outcomes = [per_rep[rep][j] for rep in range(spec.reps)]
        results.append(_aggregate(row_id, cfg, tag, selection, outcomes, spec.reps))
    return results


# ---------------------------------------------------------------------------
# Built-in replication targets
# ---------------------------------------------------------------------------

_RHO_E = 0.35  # shared-confounder correlation used by all built-in rows


def _scenario(**kw) -> ScenarioConfig:
    base = dict(
        n=1000,
        theta=0.3,
        sigma2_ex=2.0,
        sigma2_ey=2.0,
        rho_e=_RHO_E,
        maf_low=0.2,
        maf_high=0.3,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def _both_selections():
    return [(tag, sel) for sel in ("all", "top:20") for tag in DEFAULT_METHODS]


def _default_jobs():
    return [(tag, default_selection(tag)) for tag in DEFAULT_METHODS]


def _rows_table2():
    rows = []
    cells = [
        ("balanced", 0.0, "rho00", 0.0),
        ("directional", 0.1, "rho00", 0.0),
        ("balanced", 0.0, "rho08", 0.8),
        ("directional", 0.1, "rho08", 0.8),
    ]
    for pleio, mu_y, rho_tag, rho in cells:
        for weak_tag, p_strong in (("weak80", 0.2), ("weak100", 0.0)):
            cfg = _scenario(
                m_b=100,
                m_c=100,
                sigma_gb=0.045,
                sigma_gc_x=0.045,
                sigma_gc_y=0.045,
                mu_gc_y=mu_y,
                rho_gc=rho,
                p_strong=p_strong,
                mu_strong=0.2,
                sigma_strong=0.05,
                strong_groups="c",
            )
            rows.append((f"{pleio}_{rho_tag}_{weak_tag}", cfg, _default_jobs()))
    return rows


def _rows_table3():
    rows = []
    for m in (100, 200, 500):
        cfg = _scenario(
            m_a=m,
            m_b=m,
            m_c=m,
            m_d=m,
            sigma_gb=0.03,
            sigma_gc_x=0.03,
            sigma_gc_y=0.03,
            sigma_gd=0.03,
        )
        rows.append((f"per_group_{m}", cfg, _both_selections()))
    return rows


def _rows_table4():
    rows = []
    for m_a in (1000, 2000, 5000, 10000, 20000, 50000):
        cfg = _scenario(
            m_a=m_a,
            m_b=1000,
            m_c=1000,
            m_d=1000,
            sigma_gb=0.03,
            sigma_gc_x=0.03,
            sigma_gc_y=0.03,
            sigma_gd=0.03,
            p_strong=0.2,
            mu_strong=0.2,
            sigma_strong=0.03,
            strong_groups="c",
        )
        rows.append((f"null_{m_a}", cfg, [("tsre", "all")]))
    return rows


def _rows_fig3(both=False):
    rows = []
    for m_b in (100, 1000, 5000):
        for sg_tag, sigma in (("sg003", 0.03), ("sg005", 0.05)):
            cfg = _scenario(m_b=m_b, sigma_gb=sigma)
            jobs = _both_selections() if both else _default_jobs()
            rows.append((f"mb{m_b}_{sg_tag}", cfg, jobs))
    return rows


def _rows_s1():
    rows = _rows_fig3(both=True)
    # Extra low-heritability cell: same genetics as mb5000_sg005 but with
    # residual variances inflated to bring Var(X) explained down to 0.42.
    cfg = _scenario(m_b=5000, sigma_gb=0.05, sigma2_ex=17.26, sigma2_ey=17.26)
    rows.append(("mb5000_sg005_her042", cfg, _both_selections()))
    return rows


def _rows_fig4(both=False):
    rows = []
    for m_b in (100, 1000, 5000):
        for weak_tag, p_strong in (("weak80", 0.2), ("weak100", 0.0)):
            cfg = _scenario(
                m_b=m_b,
                sigma_gb=0.05,
                p_strong=p_strong,
                mu_strong=0.2,
                sigma_strong=0.05,
                strong_groups="b",
            )
            jobs = _both_selections() if both else _default_jobs()
            rows.append((f"mb{m_b}_{weak_tag}", cfg, jobs))
    return rows


def _rows_s3():
    rows = []
    for n in (1000, 3000, 5000, 10000):
        for weak_tag, p_strong in (("weak80", 0.2), ("weak100", 0.0)):
            cfg = _scenario(
                n=n,
                m_b=1000,
                sigma_gb=0.03,
                p_strong=p_strong,
                mu_strong=0.2,
                sigma_strong=0.03,
                strong_groups="b",
            )
            rows.append((f"n{n}_{weak_tag}", cfg, _both_selections()))
    return rows


def _rows_s4():
    rows = []
    for pleio, mu_y in (("balanced", 0.0), ("directional", 0.1)):
        for m_b in range(0, 1001, 100):
            cfg = _scenario(
                m_b=m_b,
                m_c=1000 - m_b,
                sigma_gb=0.03,
                sigma_gc_x=0.03,
                sigma_gc_y=0.03,
                mu_gc_y=mu_y,
            )
            rows.append((f"mb{m_b}_{pleio}", cfg, _both_selections()))
    return rows


TARGETS: dict[str, Callable[[], list]] = {
    "table2": _rows_table2,
    "table3": _rows_table3,
    "table4": _rows_table4,
    "fig3": _rows_fig3,
    "fig4": _rows_fig4,
    "s1": _rows_s1,
    "s2": lambda: _rows_fig4(both=True),
    "s3": _rows_s3,
    "s4": _rows_s4,
}

_LONG_TARGETS = {"fig3", "fig4"}


def builtin_rows(target: str, config: ScenarioConfig | None = None):
    """Row definitions (row_id, config, jobs) for a replication target.

    Only the custom target takes a scenario config, and it requires one."""
    if target == "custom":
        if config is None:
            raise ConfigError("the custom target requires a scenario config")
        return [("custom", config, _default_jobs())]
    if target not in TARGETS:
        raise ConfigError(
            f"unknown target {target!r}; choose from "
            f"{', '.join(sorted(TARGETS))}, custom"
        )
    if config is not None:
        raise ConfigError(f"a scenario config only applies to the custom target, not {target!r}")
    return TARGETS[target]()


def reproduce_table(
    target: str,
    out_dir,
    reps: int = 100,
    seed: int = 0,
    threads: int = 1,
    config: ScenarioConfig | None = None,
) -> list[str]:
    """Run a replication target and write its CSV outputs.

    Writes <target>_results.csv (aggregates) and <target>_scenarios.csv
    (flattened per-row configs); distribution targets also write
    <target>_estimates_long.csv with every per-replicate estimate.  Returns
    the list of written paths.
    """
    rows = builtin_rows(target, config)
    spec = ReplicationSpec(target=target, reps=reps, seed=seed)
    _check_threads(threads)
    os.makedirs(out_dir, exist_ok=True)

    results_path = os.path.join(out_dir, f"{target}_results.csv")
    scen_path = os.path.join(out_dir, f"{target}_scenarios.csv")
    long_path = os.path.join(out_dir, f"{target}_estimates_long.csv")
    written = [results_path, scen_path]

    results: list[ReplicateResult] = []
    for row_key, (row_id, cfg, jobs) in enumerate(rows):
        results += run_scenario(
            cfg, spec, row_key=row_key, row_id=row_id, jobs=jobs, threads=threads
        )

    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        if target != "custom":
            fh.write(_OMITTED_NOTE + "\n")
        write_csv(fh, RESULT_HEADER, (res.csv_row(target) for res in results))

    with open(scen_path, "w", encoding="utf-8", newline="") as fh:
        write_csv(
            fh,
            ["row_id", *(f.name for f in fields(ScenarioConfig))],
            ([row_id, *astuple(cfg)] for row_id, cfg, _ in rows),
        )

    if target in _LONG_TARGETS:
        with open(long_path, "w", encoding="utf-8", newline="") as fh:
            write_csv(
                fh,
                LONG_HEADER,
                (
                    [target, res.row_id, res.method, res.selection, rep, est, se]
                    for res in results
                    for rep, est, se in zip(
                        res.rep_index.tolist(), res.estimates.tolist(), res.ses.tolist()
                    )
                ),
            )
        written.append(long_path)
    return written


# ---------------------------------------------------------------------------
# Real-data pipeline
# ---------------------------------------------------------------------------


@dataclass
class RealDataResult:
    method: str
    theta_hat: float
    se: float
    n: int
    m_used: int


def save_phenotype(path, ids, values) -> None:
    """Write an `id,value` CSV.  A repeated id or a NaN or infinite value,
    which load_phenotype would reject, is a DataError before the file is
    opened."""
    values = np.asarray(values, dtype=np.float64)
    if len(ids) != values.size:
        raise DataError("phenotype ids and values disagree in length")
    dup = _repeated(ids)
    if dup is not None:
        raise DataError(f"phenotype id {dup!r} names more than one value")
    if not np.isfinite(values).all():
        raise DataError("phenotype values must be finite (found NaN or inf)")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, ["id", "value"], zip(ids, values.tolist()))


def load_phenotype(path) -> tuple[list[str], np.ndarray]:
    """Read an `id,value` CSV; duplicate ids, bad floats, NaN and inf are errors."""
    rows = read_csv(path)
    header = next(rows)
    if header != ["id", "value"]:
        raise DataError(f"{path}: expected header 'id,value', got {','.join(header)!r}")
    ids: list[str] = []
    values: list[float] = []
    for lineno, (ident, text) in rows:
        ids.append(ident)
        values.append(finite_float(text, path, lineno))
    return ids, np.array(values, dtype=np.float64)


def _align(gm: GenotypeMatrix, exposure, outcome):
    """Match phenotype rows to genotype rows by individual id."""
    exp_ids, exp_vals = exposure
    out_ids, out_vals = outcome
    geno_index = {ident: i for i, ident in enumerate(gm.individual_ids)}
    missing = [i for i in exp_ids if i not in geno_index]
    missing += [i for i in out_ids if i not in geno_index]
    if missing:
        shown = ", ".join(sorted(set(missing))[:10])
        raise DataError(
            f"{len(set(missing))} phenotype ids are absent from the genotypes: {shown}"
        )
    exp_map = dict(zip(exp_ids, exp_vals))
    out_map = dict(zip(out_ids, out_vals))
    keep = [i for i in gm.individual_ids if i in exp_map and i in out_map]
    if len(keep) < 3:
        raise DataError(
            f"only {len(keep)} individuals have genotypes and both phenotypes"
        )
    rows = np.array([geno_index[i] for i in keep], dtype=np.intp)
    x = np.array([exp_map[i] for i in keep], dtype=np.float64)
    y = np.array([out_map[i] for i in keep], dtype=np.float64)
    return rows, keep, x, y


def _subset_genotypes(gm: GenotypeMatrix, rows, ids) -> GenotypeMatrix:
    return GenotypeMatrix(
        dosages=np.ascontiguousarray(gm.dosages[rows]),
        variant_ids=list(gm.variant_ids),
        individual_ids=list(ids),
    )


def _load_checked_grm(path, source: _DosageSource, d: np.ndarray, ids) -> Grm:
    """Load a precomputed GRM, which must be the all-variant GRM of the aligned
    sample: the n and m of its polymorphic dosages source, and their row norms
    d = |z_i|^2 / m as its diagonal."""
    grm = load_grm(path)
    if grm.n != source.n:
        raise DataError(
            f"{path}: GRM has n={grm.n} but {source.n} individuals remain after alignment"
        )
    if grm.m_effective != source.m:
        raise DataError(
            f"{path}: GRM was built from {grm.m_effective} variants but the "
            f"genotypes have {source.m} polymorphic variants"
        )
    bad = np.flatnonzero(np.abs(grm.diagonal() - d) > 1e-9 * np.abs(d))
    if bad.size:
        raise DataError(
            f"{path}: GRM diagonal does not match the genotypes for {bad.size} of "
            f"{source.n} individuals (first: {ids[bad[0]]!r}); was it built from "
            "another sample?"
        )
    return grm


def estimate_real(
    genotypes,
    exposure,
    outcome,
    method: str = "tsre",
    selection: str | None = None,
    grm_cutoff: float | None = None,
    grm_path=None,
) -> RealDataResult:
    """File-based estimation: load, align, filter, summarize, estimate.

    grm_cutoff removes one member of every pair more related than the
    cutoff before estimation.  grm_path supplies a precomputed GRM; it must
    match the aligned sample in n, m and its diagonal, and then serves only
    that filtering step.  Without it the filter builds the GRM itself from
    the standardized matrix.  The aligned sample's dosages are read once in
    int8 column blocks for the summaries and row norms (genotype module
    docstring), which also check the GRM file; they are read again only for
    a kept sample that the filter made smaller.  Every method, tsre
    included, fits on them.
    """
    selection = selection or default_selection(method)
    _check_jobs([(method, selection)])
    if grm_cutoff is not None:
        check_cutoff(grm_cutoff)

    gm = load_genotypes(genotypes)
    rows, ids, x, y = _align(gm, load_phenotype(exposure), load_phenotype(outcome))
    gm = _subset_genotypes(gm, rows, ids)

    summaries, source, d = _dosage_summaries(gm, x, y)
    grm = None if grm_path is None else _load_checked_grm(grm_path, source, d, ids)
    if grm_cutoff is not None:
        kept = filter_related(compute_grm(standardize(gm)) if grm is None else grm, grm_cutoff)
        if kept.size < gm.n:
            if kept.size < 3:
                raise EstimationError(f"only {kept.size} individuals remain after filtering")
            gm = _subset_genotypes(gm, kept, [ids[k] for k in kept])
            x = x[kept]
            y = y[kept]
            summaries, source, d = _dosage_summaries(gm, x, y)
    est = _run_method(method, _select(summaries, selection), source, summaries, d, x, y)
    return RealDataResult(method, est.theta_hat, est.se, gm.n, est.n_iv)
