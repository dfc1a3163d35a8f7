"""Replicates and CLI commands rebuilt from the package's public functions.

Each function repeats, call for call, what the harness or the CLI does, so
that every call into a package module can sit in its own span.  The rebuilt
results also serve the correctness oracle: they must equal what the harness
and the CLI return for the same inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from tsre import engine, estimators, genotype, harness, simulate, sumstats
from tsre.errors import TsreError

# Span name of the call that runs each method tag.
METHOD_LAYER = {
    "tsre": "engine.tsre_estimate",
    "ivw": "estimators.ivw",
    "ivw_fe": "estimators.ivw_fe",
    "egger": "estimators.egger",
    "sm": "estimators.simple_median",
    "wm": "estimators.weighted_median",
    "tsls": "estimators.tsls",
}
BOOTSTRAP_DRAWS = 1000  # default n_boot of the median estimators


@dataclass
class Rebuilt:
    """Outputs of one rebuilt replicate plus what the oracle needs to check it.

    outputs holds (theta_hat, se) or None per job.  tsre_cols holds, per job
    index of a tsre fit, the retained-variant columns it used (None for all);
    ivw_inputs holds, per ivw job index, the selected summaries.
    """

    outputs: list
    dosages: np.ndarray | None = None
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    tsre_cols: dict = field(default_factory=dict)
    ivw_inputs: dict = field(default_factory=dict)
    fits: list = field(default_factory=list)


def _select(tracer, summaries, selection):
    kind, value = harness.parse_selection(selection)
    if kind == "all":
        return summaries
    with tracer.span("sumstats.select"):
        if kind == "top":
            picked = sumstats.select_top_k(summaries, int(value))
        else:
            picked = sumstats.select_by_pvalue(summaries, float(value))
    return [summaries[i] for i in picked]


def _columns(selected, std):
    index = {vid: i for i, vid in enumerate(std.variant_ids)}
    return np.array([index[s.variant_id] for s in selected], dtype=np.intp)


def _grm(tracer, std):
    grm = tracer.call("genotype.compute_grm", genotype.compute_grm, std)
    tracer.add("genotype.compute_grm.calls", 1)
    tracer.add("genotype.compute_grm.gflop", 2.0 * grm.n * (grm.n + 1) / 2 * grm.m_effective / 1e9)
    return grm


def _fit(tracer, grm, x, y, rebuilt):
    fit = tracer.call("engine.tsre_estimate", engine.tsre_estimate, grm, x, y)
    tracer.add("engine.tsre_estimate.pairs", grm.n * (grm.n - 1) // 2)
    rebuilt.fits.append((grm, x, y))
    return fit


def _run_method(tracer, tag, selection, std, grm_all, summaries, x, y, rng_for, rebuilt, j):
    selected = _select(tracer, summaries, selection)
    layer = METHOD_LAYER[tag]
    if tag == "tsre":
        if selection == "all":
            if grm_all[0] is None:
                grm_all[0] = _grm(tracer, std)
            grm, cols = grm_all[0], None
        else:
            cols = _columns(selected, std)
            sub = genotype.StandardizedGenotypes(
                values=np.ascontiguousarray(std.values[:, cols]),
                variant_ids=[std.variant_ids[c] for c in cols],
                dropped_variants=[],
            )
            grm = _grm(tracer, sub)
        rebuilt.tsre_cols[j] = cols
        fit = _fit(tracer, grm, x, y, rebuilt)
        return fit.theta_hat, fit.se
    if tag == "tsls":
        cols = _columns(selected, std)
        est = tracer.call(layer, estimators.tsls, std.values[:, cols], x, y)
    elif tag in ("ivw", "ivw_fe"):
        rebuilt.ivw_inputs[j] = selected
        mode = "random" if tag == "ivw" else "fixed"
        est = tracer.call(layer, estimators.ivw, selected, mode=mode)
    elif tag == "egger":
        est = tracer.call(layer, estimators.egger, selected)
    else:
        fn = estimators.simple_median if tag == "sm" else estimators.weighted_median
        tracer.add("estimators.bootstrap.draws", BOOTSTRAP_DRAWS)
        est = tracer.call(layer, fn, selected, rng=rng_for(tag))
    return est.theta_hat, est.se


def replicate(tracer, cfg, jobs, seed, row_key, group) -> Rebuilt:
    """One harness replicate (replicate index 0 of run_scenario with this
    seed and row key), in the order the harness makes its calls."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(row_key, 0)))

    def rng_for(tag):
        key = (row_key, 0, 1000 + harness.METHOD_TAGS.index(tag))
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))

    rebuilt = Rebuilt(outputs=[None] * len(jobs))
    with tracer.span("replicate", group):
        gm = tracer.call(
            "genotype.simulate_genotypes",
            genotype.simulate_genotypes,
            cfg.n, cfg.m_total, cfg.maf_low, cfg.maf_high, rng,
        )
        tracer.add("genotype.simulate_genotypes.cells", gm.n * gm.m)
        rebuilt.dosages = gm.dosages
        try:
            std = tracer.call("genotype.standardize", genotype.standardize, gm)
            tracer.add("genotype.standardize.bytes_out", std.values.nbytes)
            effects = tracer.call("simulate.sample_effects", simulate.sample_effects, cfg, rng)
            pheno = tracer.call(
                "simulate.generate_phenotypes", simulate.generate_phenotypes, std, effects, cfg, rng
            )
            summaries = tracer.call(
                "sumstats.per_variant_regression",
                sumstats.per_variant_regression, std, pheno.x, pheno.y,
            )
        except TsreError:
            return rebuilt
        rebuilt.x, rebuilt.y = pheno.x, pheno.y
        grm_all = [None]
        for j, (tag, selection) in enumerate(jobs):
            try:
                rebuilt.outputs[j] = _run_method(
                    tracer, tag, selection, std, grm_all, summaries, pheno.x, pheno.y,
                    rng_for, rebuilt, j,
                )
            except TsreError:
                tracer.add(METHOD_LAYER[tag] + ".failed", 1)
    return rebuilt


@dataclass
class FileSet:
    """Paths of the on-disk dataset and the GRM binary the commands share."""

    genotypes: str
    exposure: str
    outcome: str
    grm: str


def cli_argv(files: FileSet) -> dict[str, list[str]]:
    """The three commands of the file workload, as tsre.cli.main arguments."""
    common = ["--genotypes", files.genotypes, "--exposure", files.exposure, "--outcome", files.outcome]
    return {
        "grm": ["grm", "--genotypes", files.genotypes, "--out", files.grm],
        "estimate_tsre": ["estimate", "--method", "tsre", *common, "--grm", files.grm],
        "estimate_ivw": ["estimate", "--method", "ivw", "--select", "top:20", *common],
    }


def _load_aligned(tracer, files: FileSet):
    gm = tracer.call("genotype.load_genotypes", genotype.load_genotypes, files.genotypes)
    tracer.add("genotype.load_genotypes.bytes_in", os.path.getsize(files.genotypes))
    exp_ids, x = tracer.call("harness.load_phenotype", harness.load_phenotype, files.exposure)
    out_ids, y = tracer.call("harness.load_phenotype", harness.load_phenotype, files.outcome)
    # The benchmark writes all three files with the same ids in the same
    # order, so the harness alignment keeps every row as it is.
    if not (gm.individual_ids == exp_ids == out_ids):
        raise RuntimeError("benchmark dataset ids are not aligned")
    std = tracer.call("genotype.standardize", genotype.standardize, gm)
    tracer.add("genotype.standardize.bytes_out", std.values.nbytes)
    return std, x, y


def command_cycle(tracer, files: FileSet, group) -> dict:
    """The grm, estimate-tsre and estimate-ivw commands, in the order the CLI
    and estimate_real make their calls.  Returns each command's result."""
    out = {}
    with tracer.span("command.grm", group):
        gm = tracer.call("genotype.load_genotypes", genotype.load_genotypes, files.genotypes)
        tracer.add("genotype.load_genotypes.bytes_in", os.path.getsize(files.genotypes))
        std = tracer.call("genotype.standardize", genotype.standardize, gm)
        tracer.add("genotype.standardize.bytes_out", std.values.nbytes)
        grm = _grm(tracer, std)
        tracer.call("genotype.save_grm", genotype.save_grm, grm, files.grm)
        tracer.add("genotype.grm_file.bytes", os.path.getsize(files.grm))
        out["grm"] = grm
    rebuilt = Rebuilt(outputs=[])
    with tracer.span("command.estimate_tsre", group):
        std, x, y = _load_aligned(tracer, files)
        grm = tracer.call("genotype.load_grm", genotype.load_grm, files.grm)
        tracer.add("genotype.grm_file.bytes", os.path.getsize(files.grm))
        tracer.call("sumstats.per_variant_regression", sumstats.per_variant_regression, std, x, y)
        try:
            fit = _fit(tracer, grm, x, y, rebuilt)
            out["estimate_tsre"] = (fit.theta_hat, fit.se)
        except TsreError:
            tracer.add("engine.tsre_estimate.failed", 1)
            out["estimate_tsre"] = None
    with tracer.span("command.estimate_ivw", group):
        std, x, y = _load_aligned(tracer, files)
        summaries = tracer.call(
            "sumstats.per_variant_regression", sumstats.per_variant_regression, std, x, y
        )
        selected = _select(tracer, summaries, "top:20")
        try:
            est = tracer.call("estimators.ivw", estimators.ivw, selected, mode="random")
            out["estimate_ivw"] = (est.theta_hat, est.se)
        except TsreError:
            tracer.add("estimators.ivw.failed", 1)
            out["estimate_ivw"] = None
    out["fits"] = rebuilt.fits
    return out
