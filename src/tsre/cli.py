"""Command line interface.

Subcommands: simulate (write one synthetic dataset), grm (build the
relationship matrix binary), estimate (file-based estimation), replicate
(Monte-Carlo table targets), and theory (closed-form bias/variance report).

Exit codes: 0 success, 2 usage or configuration error, 3 data contract
error or unreadable input file, 4 numerical/estimation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import astuple, fields

import numpy as np

from .errors import ConfigError, DataError, EstimationError, write_csv
from .genotype import (
    _individual_ids,
    compute_grm,
    load_genotypes,
    save_genotypes,
    save_grm,
    simulate_genotypes,
    standardize,
)
from .harness import (
    METHOD_TAGS,
    TARGETS,
    estimate_real,
    reproduce_table,
    save_phenotype,
)
from .simulate import generate_phenotypes, group_layout, load_scenario, sample_effects
from .theory import (
    asymptotic_var_tsre,
    bias_egger,
    bias_ivw,
    bias_tsre,
    heritability,
    moments_from_config,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsre",
        description="Pairwise-relatedness regression estimator for "
        "instrumental-variable analysis, with classic comparators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write one simulated dataset to a directory")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("grm", help="compute the relationship matrix binary")
    p.add_argument("--genotypes", required=True, help="dosage CSV")
    p.add_argument("--out", required=True, help="output GRM binary path")

    p = sub.add_parser("estimate", help="estimate the causal effect from files")
    p.add_argument("--method", required=True, choices=METHOD_TAGS)
    p.add_argument("--genotypes", required=True, help="dosage CSV")
    p.add_argument("--exposure", required=True, help="id,value CSV")
    p.add_argument("--outcome", required=True, help="id,value CSV")
    p.add_argument(
        "--select",
        default=None,
        help="variant selection: all, top:K, or pval:A (default: method convention)",
    )
    p.add_argument("--grm", default=None, help="GRM binary of the genotypes, for --grm-cutoff")
    p.add_argument(
        "--grm-cutoff",
        type=float,
        default=None,
        help="drop one of each pair with relatedness above this cutoff",
    )

    p = sub.add_parser("replicate", help="run a Monte-Carlo replication target")
    p.add_argument(
        "--target",
        required=True,
        choices=(*sorted(TARGETS), "custom"),
    )
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=1, help="replicate worker processes")
    p.add_argument("--config", default=None, help="scenario config (custom target)")

    p = sub.add_parser("theory", help="closed-form bias and variance for a scenario")
    p.add_argument("--config", required=True, help="scenario config file")
    return parser


def _cmd_simulate(args) -> int:
    cfg = load_scenario(args.config)
    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    gm = simulate_genotypes(cfg.n, cfg.m_total, cfg.maf_low, cfg.maf_high, rng)
    gm.individual_ids = _individual_ids(gm.n)
    effects = sample_effects(cfg, rng)
    pheno = generate_phenotypes(gm, effects, cfg, rng)

    geno_path = os.path.join(args.out, "genotypes.csv")
    save_genotypes(gm, geno_path)
    save_phenotype(os.path.join(args.out, "exposure.csv"), gm.individual_ids, pheno.x)
    save_phenotype(os.path.join(args.out, "outcome.csv"), gm.individual_ids, pheno.y)

    group = [g for g, (c0, c1) in group_layout(cfg).items() for _ in range(c0, c1)]
    effects_path = os.path.join(args.out, "effects.csv")
    with open(effects_path, "w", encoding="utf-8", newline="") as fh:
        write_csv(
            fh,
            ["variant_id", "group", "beta", "alpha"],
            zip(gm.variant_ids, group, effects.beta.tolist(), effects.alpha.tolist()),
        )
    for name in ("genotypes.csv", "exposure.csv", "outcome.csv", "effects.csv"):
        print(os.path.join(args.out, name))
    return 0


def _cmd_grm(args) -> int:
    grm = compute_grm(standardize(load_genotypes(args.genotypes)))
    save_grm(grm, args.out)
    print(f"{args.out}: n={grm.n}, variants_used={grm.m_effective}")
    return 0


def _cmd_estimate(args) -> int:
    result = estimate_real(
        args.genotypes,
        args.exposure,
        args.outcome,
        method=args.method,
        selection=args.select,
        grm_cutoff=args.grm_cutoff,
        grm_path=args.grm,
    )
    write_csv(sys.stdout, [f.name for f in fields(result)], [astuple(result)])
    return 0


def _cmd_replicate(args) -> int:
    config = None if args.config is None else load_scenario(args.config)
    written = reproduce_table(
        args.target,
        args.out,
        reps=args.reps,
        seed=args.seed,
        threads=args.threads,
        config=config,
    )
    for path in written:
        print(path)
    return 0


def _cmd_theory(args) -> int:
    cfg = load_scenario(args.config)
    params = moments_from_config(cfg)
    tau2, var_theta = asymptotic_var_tsre(params)
    rows = [
        ("bias_tsre", bias_tsre(params)),
        ("bias_ivw", bias_ivw(params)),
        ("bias_egger", bias_egger(params) if params.var_beta > 0 else float("nan")),
        ("tau2", tau2),
        ("var_theta", var_theta),
        ("se_theta", var_theta**0.5),
        ("heritability", heritability(cfg)),
    ]
    write_csv(sys.stdout, ["quantity", "value"], rows)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "grm": _cmd_grm,
    "estimate": _cmd_estimate,
    "replicate": _cmd_replicate,
    "theory": _cmd_theory,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # one stderr line per warning, like the error lines below, instead
        # of Python's source path and code line
        warnings.showwarning = _print_warning
        try:
            return _COMMANDS[args.command](args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (DataError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except EstimationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
