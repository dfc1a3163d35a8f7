"""One benchmark workload, run in a fresh process by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

The workload sets itself up a few times (input generation plus a warm-up
on tiny inputs), then runs a closed loop from a single caller for the given
seconds, then checks every output against the oracle.  With --trace 1 it
instead rebuilds the same operations from the package's public calls with a
span around each call.  The raw result is one JSON object on the last line
of standard output.  --tiny shrinks every input for the self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tsre  # noqa: E402
from tsre import cli, engine, genotype, harness, simulate, sumstats  # noqa: E402

import compose  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 3
MIN_ROUNDS = 2
OUT_DIR = os.path.join(ROOT, "perfbench", "_out")
WORK_DIR = os.path.join(ROOT, "perfbench", "_work")
ALL_METHODS = [(tag, harness.default_selection(tag)) for tag in harness.METHOD_TAGS]

# Builtin harness rows per simulation workload: (target, row ids, jobs).
# None keeps the row's own jobs.
SIM_WORKLOADS = {
    # m-heavy: n=1000, m=53000, tsre only; sampling and standardize dominate
    "dilution": ("table4", ["null_50000"], None),
    # n^2-heavy: n=5000, m=1000, five methods x {all, top:20}; GRM and pair sums dominate
    "large_n": ("s3", ["n5000_weak80"], None),
    # many small replicates, all seven methods; per-replicate fixed cost and bootstraps dominate
    "comparators": ("table2", None, ALL_METHODS),
}
# File workload: the scenario written to disk as a 2 MB dosage CSV.  At
# m=5000 (a 10 MB CSV) a run held two command cycles and its rate spread too
# widely across runs; m=1000 gives six to seven cycles per ten seconds.
FILE_WORKLOADS = {"estimate_file": ("fig3", "mb1000_sg005")}


@dataclass
class Row:
    target: str
    row_id: str
    key: int
    cfg: object
    jobs: list


def _shrink(cfg, n, m):
    groups = {g: min(getattr(cfg, g), m) for g in ("m_a", "m_b", "m_c", "m_d")}
    return cfg.replace(n=min(cfg.n, n), **groups)


def sim_rows(name: str, tiny: bool) -> list[Row]:
    target, ids, jobs = SIM_WORKLOADS[name]
    rows = []
    for key, (row_id, cfg, row_jobs) in enumerate(harness.builtin_rows(target)):
        if ids is None or row_id in ids:
            cfg = _shrink(cfg, 150, 40) if tiny else cfg
            rows.append(Row(target, row_id, key, cfg, list(jobs or row_jobs)))
    return rows


def spec_seed(seed: int, i: int) -> int:
    """Seed of loop iteration i: distinct per iteration and per workload seed."""
    return seed * 1_000_000 + i


def run_row(row: Row, seed: int) -> list:
    """One replicate through harness.run_scenario; (theta_hat, se) or None per job."""
    spec = harness.ReplicationSpec(target=row.target, reps=1, seed=seed)
    results = harness.run_scenario(
        row.cfg, spec, row_key=row.key, row_id=row.row_id, jobs=row.jobs, threads=1
    )
    return [(r.estimates[0], r.ses[0]) if r.estimates.size else None for r in results]


# ---------------------------------------------------------------------------
# Oracle checks shared by both modes
# ---------------------------------------------------------------------------


def mismatches(outputs: list, rebuilt: compose.Rebuilt) -> set[int]:
    """Job indices whose output differs from the rebuilt replicate's."""
    return {
        j
        for j, (out, ref) in enumerate(zip(outputs, rebuilt.outputs))
        if (out is None) != (ref is None) or (out is not None and not oracle.pair_matches(out, ref))
    }


def reference_mismatches(rebuilt: compose.Rebuilt, jobs) -> set[int]:
    """Job indices whose rebuilt tsre or ivw value differs from its reference."""
    bad = set()
    for j, cols in rebuilt.tsre_cols.items():
        if rebuilt.outputs[j] is not None:
            ref = oracle.tsre_reference(rebuilt.dosages, rebuilt.x, rebuilt.y, cols)
            if not oracle.pair_matches(rebuilt.outputs[j], ref):
                bad.add(j)
    for j, selected in rebuilt.ivw_inputs.items():
        if rebuilt.outputs[j] is not None:
            mode = "random" if jobs[j][0] == "ivw" else "fixed"
            if not oracle.pair_matches(rebuilt.outputs[j], oracle.ivw_reference(selected, mode)):
                bad.add(j)
    return bad


def failed_jobs(outputs: list) -> set[int]:
    """Job indices that raised or returned a number that is not finite."""
    return {j for j, out in enumerate(outputs) if out is None or not oracle.finite_output(out)}


def perturbation_flagged(rows: list[Row], seed: int) -> bool:
    """The oracle passes a clean replicate and flags each tsre or ivw
    theta_hat moved by 1e-6 of its scale, both against its reference and
    against the unmoved output."""
    row = rows[0]
    rebuilt = compose.replicate(Tracer(False), row.cfg, row.jobs, seed, row.key, 0)
    clean = list(rebuilt.outputs)
    flagged = []
    for j in list(rebuilt.tsre_cols) + list(rebuilt.ivw_inputs):
        if clean[j] is None:
            continue
        theta, se = clean[j]
        rebuilt.outputs[j] = (theta + 1e-6 * max(1.0, abs(theta)), se)
        flagged.append(j in reference_mismatches(rebuilt, row.jobs) and j in mismatches(clean, rebuilt))
        rebuilt.outputs[j] = clean[j]
    return not reference_mismatches(rebuilt, row.jobs) and bool(flagged) and all(flagged)


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------


def sim_setup(name: str, tiny: bool) -> list[Row]:
    rows = sim_rows(name, tiny)
    for row in rows:
        warm = Row(row.target, row.row_id, row.key, _shrink(row.cfg, 60, 25), row.jobs)
        run_row(warm, 0)
    return rows


def sim_plain(rows: list[Row], seed: int, seconds: float) -> dict:
    """Closed loop of rounds, one replicate of every row per round."""
    outputs, errors, latency, rounds = [], [], [], []
    t0 = time.perf_counter()
    i = 0
    # At least two rounds: the first of a process runs slower, and a run
    # that held only that one would not compare with the others.
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        t_round = time.perf_counter()
        for row in rows:
            t = time.perf_counter()
            try:
                outputs.append(run_row(row, spec_seed(seed, i)))
            except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
                outputs.append([None] * len(row.jobs))
                errors.append(f"{row.row_id}: {exc!r}")
            latency.append(time.perf_counter() - t)
            i += 1
        rounds.append(time.perf_counter() - t_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(len(out) for out in outputs)
    failed = [failed_jobs(out) for out in outputs]
    mismatched = 0
    for k, row in enumerate(rows):
        rebuilt = compose.replicate(Tracer(False), row.cfg, row.jobs, spec_seed(seed, k), row.key, k)
        bad = mismatches(outputs[k], rebuilt) | reference_mismatches(rebuilt, row.jobs)
        mismatched += len(bad)
        failed[k] |= bad
    return {
        "units": i,
        "unit": "replicate",
        "rate": len(rows) / statistics.median(rounds),
        "rounds": len(rounds),
        "latency": {"replicate_s": percentile_note(latency)},
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": sum(len(f) for f in failed),
        "correct": mismatched == 0,
        "errors": errors,
    }


PROBE_REPEATS = 3


def probe_kernel(tracer: Tracer, fits, group) -> None:
    """Time kernels.pair_sums on each fit's own centred inputs, outside the
    replicate's span, to give the kernel's share of engine.tsre_estimate.
    Each probe runs PROBE_REPEATS times; layer_metrics takes the mean."""
    pair_sums = getattr(getattr(tsre, "kernels", None), "pair_sums", None)
    if pair_sums is None:
        return
    for grm, x, y in fits:
        xc = np.ascontiguousarray(x - np.mean(x))
        yc = np.ascontiguousarray(y - np.mean(y))
        for _ in range(PROBE_REPEATS):
            with tracer.span("kernels.pair_sums", group):
                pair_sums(grm.lower_triangle, grm.n, xc, yc)
        tracer.add("kernels.pair_sums.pairs", grm.n * (grm.n - 1) // 2, group)


def timed_rotation(i: int, walls: list, calls: list) -> list:
    """Run each call once, adding its wall time to walls[k]; which call goes
    first rotates with i, so no copy always runs on a cold cache."""
    results = [None] * len(calls)
    for step in range(len(calls)):
        k = (i + step) % len(calls)
        t = time.perf_counter()
        results[k] = calls[k]()
        walls[k] += time.perf_counter() - t
    return results


def traced_run_row(tracer: Tracer, row: Row, seed: int, i: int) -> list:
    with tracer.span("harness.run_scenario", ("harness", i)):
        return run_row(row, seed)


def sim_traced(rows: list[Row], seed: int, seconds: float) -> dict:
    """Per iteration, the traced rebuild, the untraced rebuild and one
    harness.run_scenario call on the same seed, in rotating order."""
    tracer, plain = Tracer(), Tracer(False)
    # The first full-size replicate of a process runs slower; keep it out.
    compose.replicate(plain, rows[0].cfg, rows[0].jobs, spec_seed(seed, 0), rows[0].key, 0)
    walls = [0.0, 0.0, 0.0]
    first, overhead = {}, []
    attempted = mismatched = failed = 0
    t0 = time.perf_counter()
    i = 0
    while i < len(rows) or time.perf_counter() - t0 < seconds:
        row = rows[i % len(rows)]
        s = spec_seed(seed, i)
        rebuilt, _, outputs = timed_rotation(i, walls, [
            lambda: compose.replicate(tracer, row.cfg, row.jobs, s, row.key, i),
            lambda: compose.replicate(plain, row.cfg, row.jobs, s, row.key, i),
            lambda: traced_run_row(tracer, row, s, i),
        ])
        overhead.append(tracer.durations("harness.run_scenario")[("harness", i)] - layer_total(tracer, i))
        probe_kernel(tracer, rebuilt.fits, i)
        bad = mismatches(outputs, rebuilt)
        if i < len(rows):
            first[i] = rebuilt
        attempted += len(outputs)
        mismatched += len(bad)
        failed += len(failed_jobs(outputs) | bad)
        i += 1
    for k, row in enumerate(rows):
        bad = reference_mismatches(first[k], row.jobs)
        mismatched += len(bad)
        failed += len(bad)
    return {
        "units": i,
        "unit": "replicate",
        "attempted": attempted,
        "failed": failed,
        "correct": mismatched == 0,
        "layers": layer_metrics(tracer, i, "replicate", walls, statistics.mean(overhead)),
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# File workload
# ---------------------------------------------------------------------------


def write_dataset(cfg, seed: int, directory: str) -> tuple:
    """Simulate one dataset as `tsre simulate` does and write its files."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gm = genotype.simulate_genotypes(cfg.n, cfg.m_total, cfg.maf_low, cfg.maf_high, rng)
    width = max(6, len(str(gm.n)))
    gm.individual_ids = [f"i{r:0{width}d}" for r in range(1, gm.n + 1)]
    std = genotype.standardize(gm)
    pheno = simulate.generate_phenotypes(std, simulate.sample_effects(cfg, rng), cfg, rng)
    files = compose.FileSet(
        genotypes=os.path.join(directory, "genotypes.csv"),
        exposure=os.path.join(directory, "exposure.csv"),
        outcome=os.path.join(directory, "outcome.csv"),
        grm=os.path.join(directory, "grm.bin"),
    )
    genotype.save_genotypes(gm, files.genotypes)
    harness.save_phenotype(files.exposure, gm.individual_ids, pheno.x)
    harness.save_phenotype(files.outcome, gm.individual_ids, pheno.y)
    return files, gm, std, pheno


def run_cli(argv: list[str]) -> tuple[int, str]:
    """tsre.cli.main in-process; returns (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def parse_estimate(text: str) -> tuple[str, float, float, int, int]:
    """Strict parse of `tsre estimate` output; raises ValueError otherwise."""
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "method,theta_hat,se,n,m_used":
        raise ValueError(f"unexpected estimate output {text!r}")
    method, theta, se, n, m = lines[1].split(",")
    return method, float(theta), float(se), int(n), int(m)


@dataclass
class FileCase:
    files: compose.FileSet
    n: int
    m: int
    grm_dense: np.ndarray
    tsre_ref: tuple
    ivw_ref: tuple
    x: np.ndarray
    y: np.ndarray

    def command_status(self, command: str, rc: int, text: str) -> str:
        """Return "ok", "failed" when the command exited non-zero or its output
        does not parse, or "wrong" when it parses but differs from the oracle."""
        if rc != 0:
            return "failed"
        if command == "grm":
            good = text == f"{self.files.grm}: n={self.n}, variants_used={self.m}\n"
            return "ok" if good else "wrong"
        try:
            method, theta, se, n, m = parse_estimate(text)
        except ValueError:
            return "failed"
        if command == "estimate_tsre":
            good = method == "tsre" and (n, m) == (self.n, self.m) and oracle.pair_matches((theta, se), self.tsre_ref)
        else:
            good = method == "ivw" and n == self.n and oracle.pair_matches((theta, se), self.ivw_ref)
        return "ok" if good else "wrong"


def file_setup(name: str, seed: int, tiny: bool, directory: str) -> tuple:
    """Input generation and a warm-up of the three commands on tiny files."""
    target, row_id = FILE_WORKLOADS[name]
    cfg = next(c for r, c, _ in harness.builtin_rows(target) if r == row_id)
    cfg = _shrink(cfg, 120, 60) if tiny else cfg
    warm_dir = os.path.join(directory, "warm")
    os.makedirs(warm_dir, exist_ok=True)
    warm_files, *_ = write_dataset(_shrink(cfg, 40, 30), seed, warm_dir)
    for argv in compose.cli_argv(warm_files).values():
        run_cli(argv)
    return write_dataset(cfg, seed, directory)


def file_case(files, gm, std, pheno) -> FileCase:
    """The oracle's references for the written dataset."""
    a, m = oracle.dense_grm(gm.dosages)
    summaries = sumstats.per_variant_regression(std, pheno.x, pheno.y)
    selected = [summaries[k] for k in sumstats.select_top_k(summaries, 20)]
    return FileCase(
        files=files,
        n=gm.n,
        m=m,
        grm_dense=a,
        tsre_ref=oracle.tsre_reference(gm.dosages, pheno.x, pheno.y),
        ivw_ref=oracle.ivw_reference(selected, "random"),
        x=pheno.x,
        y=pheno.y,
    )


def file_numbers_ok(case: FileCase, grm, fit) -> bool:
    """The GRM binary and an in-process tsre_estimate against the references."""
    return oracle.packed_matches(grm.lower_triangle, case.grm_dense) and (
        fit is not None and oracle.pair_matches(fit, case.tsre_ref)
    )


def percentile_note(samples: list[float]) -> dict:
    """Median, plus the highest standard percentile with >= 10 samples beyond it."""
    note = {"median_s": statistics.median(samples), "count": len(samples)}
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (1 - p / 100) >= 10:
            note[f"p{p:g}_s"] = float(np.percentile(samples, p))
            break
    return note


def file_plain(case: FileCase, seconds: float) -> dict:
    argv = compose.cli_argv(case.files)
    latency = {c: [] for c in argv}
    status = {c: Counter() for c in argv}
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        t_round = time.perf_counter()
        for command, args in argv.items():
            t = time.perf_counter()
            rc, text = run_cli(args)
            latency[command].append(time.perf_counter() - t)
            status[command][case.command_status(command, rc, text)] += 1
        rounds.append(time.perf_counter() - t_round)
    cycles = len(rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    grm = genotype.load_grm(case.files.grm)
    try:
        fit = engine.tsre_estimate(grm, case.x, case.y)
        fit = (fit.theta_hat, fit.se)
    except tsre.TsreError:
        fit = None
    return {
        "units": cycles,
        "unit": "command cycle",
        "rate": 1.0 / statistics.median(rounds),
        "rounds": cycles,
        "peak_rss_mb": peak_rss_mb,
        "attempted": cycles * len(argv),
        "failed": cycles * len(argv) - sum(s["ok"] for s in status.values()),
        "correct": file_numbers_ok(case, grm, fit) and not any(s["wrong"] for s in status.values()),
        "latency": {f"{c}_cmd_s": {**percentile_note(latency[c]), "ok": status[c]["ok"]} for c in argv},
    }


def traced_cli_cycle(tracer: Tracer, case: FileCase, i: int) -> Counter:
    """The three commands through tsre.cli.main; returns their statuses."""
    status = Counter()
    for command, args in compose.cli_argv(case.files).items():
        with tracer.span("cli.main", ("cli", i)):
            rc, text = run_cli(args)
        status[case.command_status(command, rc, text)] += 1
    return status


def file_traced(case: FileCase, seconds: float) -> dict:
    """Per iteration, the traced rebuild of the three commands, the untraced
    rebuild and the three tsre.cli.main calls, in rotating order."""
    tracer, plain = Tracer(), Tracer(False)
    compose.command_cycle(plain, case.files, 0)
    walls = [0.0, 0.0, 0.0]
    overhead = []
    status = Counter()
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        out, _, cli_status = timed_rotation(i, walls, [
            lambda: compose.command_cycle(tracer, case.files, i),
            lambda: compose.command_cycle(plain, case.files, i),
            lambda: traced_cli_cycle(tracer, case, i),
        ])
        overhead.append(tracer.durations("cli.main")[("cli", i)] - layer_total(tracer, i))
        probe_kernel(tracer, out["fits"], i)
        status += cli_status
        if i == 0:
            first = out
        i += 1
    attempted = i * len(compose.cli_argv(case.files))
    return {
        "units": i,
        "unit": "command cycle",
        "attempted": attempted,
        "failed": attempted - status["ok"],
        "correct": file_numbers_ok(case, first["grm"], first["estimate_tsre"]) and not status["wrong"],
        "layers": layer_metrics(tracer, i, "command.", walls, statistics.mean(overhead)),
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# Per-layer aggregation
# ---------------------------------------------------------------------------

ROOT_SPANS = ("replicate", "command.grm", "command.estimate_tsre", "command.estimate_ivw")
PROBE_SPANS = ("kernels.pair_sums",)


def layer_total(tracer: Tracer, group) -> float:
    """Summed self time of the layer calls in one replicate or cycle."""
    own = tracer.self_times()[group]
    return sum(v for k, v in own.items() if k not in ROOT_SPANS + PROBE_SPANS)


def layer_metrics(tracer: Tracer, units: int, root_prefix: str, walls, harness_overhead) -> dict:
    """Per-unit means of self times and computed counts over the traced units."""
    selfs = tracer.self_times()
    totals: dict[str, float] = {}
    for g in range(units):
        for name, value in list(selfs[g].items()) + list(tracer.counts[g].items()):
            key = name if name.count(".") >= 2 else name + ".self_s"
            if name.startswith(root_prefix):
                key = "trace.uncovered_s"
            totals[key] = totals.get(key, 0.0) + value
    out = {k: v / units for k, v in totals.items()}
    out["kernels.pair_sums.self_s"] = out.get("kernels.pair_sums.self_s", 0.0) / PROBE_REPEATS
    out["harness.overhead_s"] = harness_overhead
    out["trace.overhead_frac"] = walls[0] / walls[1] - 1.0
    out["trace.coverage_frac"] = 1.0 - out.get("trace.uncovered_s", 0.0) / (walls[0] / units)
    fit = out.get("engine.tsre_estimate.self_s", 0.0)
    out["kernels.pair_sums.share_of_fit"] = out.get("kernels.pair_sums.self_s", 0.0) / fit if fit else 0.0
    return out


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _blas():
    """(config string, thread count) of the OpenBLAS that NumPy loaded."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return None, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def manifest(seed: int) -> dict:
    blas_config, blas_threads = _blas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "kernel_backend": getattr(tsre, "KERNEL_BACKEND", None),
        "harness_threads": 1,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=[*SIM_WORKLOADS, *FILE_WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(tsre.__file__).startswith(src):
        print(f"error: tsre was imported from {tsre.__file__}, not {src}", file=sys.stderr)
        return 1

    is_sim = args.workload in SIM_WORKLOADS
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            if is_sim:
                setup = sim_setup(args.workload, args.tiny)
            else:
                setup = file_setup(args.workload, args.seed, args.tiny, work)
            setup_s.append(time.perf_counter() - t)
        if is_sim:
            result = (sim_traced if args.trace else sim_plain)(setup, args.seed, args.seconds)
            if args.tiny:
                result["perturbation_flagged"] = perturbation_flagged(setup, spec_seed(args.seed, 0))
        else:
            case = file_case(*setup)
            del setup
            result = (file_traced if args.trace else file_plain)(case, args.seconds)

    result["setup_s"] = setup_s
    result["manifest"] = manifest(args.seed)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        t_first = tracer.spans[0]["start"] if tracer.spans else 0.0
        spans = [
            {**s, "start": s["start"] - t_first, "end": s["end"] - t_first, "group": str(s["group"])}
            for s in tracer.spans
        ]
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"manifest": result["manifest"], "spans": spans,
                       "counts": {str(g): c for g, c in tracer.counts.items()}}, fh)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
