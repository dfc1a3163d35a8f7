"""The tsre benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; the package is imported from its src/.
Workloads (defined in workload.py):

  dilution       table4 row null_50000 (n=1000, m=53000), tsre only
  large_n        s3 row n5000_weak80 (n=5000, m=1000), five methods x {all, top:20}
  comparators    the eight table2 rows (n=1000, m=200), all seven methods
  estimate_file  fig3 mb1000_sg005 (n=1000, m=1000) as a 2 MB dosage CSV, through
                 `tsre grm`, `tsre estimate --method tsre --grm` and
                 `tsre estimate --method ivw --select top:20`

--trace 0 times a closed loop from one caller and prints the end-to-end
metrics; --trace 1 rebuilds the same work from public calls with a span
around each and prints per-layer metrics (per replicate, or per command
cycle on estimate_file).  Every run checks its outputs against the oracle in
oracle.py.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it print every
metric by name with its unit, the run manifest, and the per-command
latencies of estimate_file.

reps_per_s is the replicates of one round (one replicate of every row of
the workload; on estimate_file, one cycle of the three commands) over the
median round time: the median keeps a burst of load from other processes on
the host out of the figure.  setup_s is the median import time of the
package in a fresh interpreter plus the median time of the workload's
set-up, each repeated several times in a run.  ok_frac is 1 - failed_frac,
the share of operations (estimator calls or CLI commands) that neither
raised, exited non-zero, nor failed the oracle; it is reported in that form
because failed_frac is 0 on a healthy workload.  The per-command latencies
of estimate_file are printed, not emitted as metrics, because every metric
must exist on every workload.

--self-test runs every workload on tiny inputs in both modes, checks that
every metric of BENCHMARK.json is emitted with its unit, and checks that the
oracle flags a perturbed theta_hat.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dilution", "large_n", "comparators", "estimate_file")
DEADLINE_S = 170  # every process this run starts must end by then
IMPORT_PROBES = 3

END_TO_END = {
    "reps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "fraction",
}
_SELF = "s"
PER_LAYER = {
    "genotype.simulate_genotypes.self_s": _SELF,
    "genotype.simulate_genotypes.cells": "count",
    "genotype.standardize.self_s": _SELF,
    "genotype.standardize.bytes_out": "B",
    "genotype.compute_grm.self_s": _SELF,
    "genotype.compute_grm.calls": "count",
    "genotype.compute_grm.gflop": "GFLOP",
    "genotype.load_genotypes.self_s": _SELF,
    "genotype.load_genotypes.bytes_in": "B",
    "genotype.save_grm.self_s": _SELF,
    "genotype.load_grm.self_s": _SELF,
    "genotype.grm_file.bytes": "B",
    "simulate.sample_effects.self_s": _SELF,
    "simulate.generate_phenotypes.self_s": _SELF,
    "sumstats.per_variant_regression.self_s": _SELF,
    "sumstats.select.self_s": _SELF,
    "engine.tsre_estimate.self_s": _SELF,
    "engine.tsre_estimate.pairs": "count",
    "engine.tsre_estimate.failed": "count",
    "kernels.pair_sums.self_s": _SELF,
    "kernels.pair_sums.pairs": "count",
    "kernels.pair_sums.share_of_fit": "fraction",
    **{
        f"estimators.{name}.{kind}": unit
        for name in ("ivw", "ivw_fe", "egger", "simple_median", "weighted_median", "tsls")
        for kind, unit in (("self_s", _SELF), ("failed", "count"))
    },
    "estimators.bootstrap.draws": "count",
    "harness.load_phenotype.self_s": _SELF,
    "harness.overhead_s": _SELF,
    "trace.overhead_frac": "fraction",
    "trace.uncovered_s": _SELF,
    "trace.coverage_frac": "fraction",
}

# Work counts, per replicate or command cycle.
COMPUTED = {name for name, unit in PER_LAYER.items() if unit in ("count", "B", "GFLOP")} - {
    name for name in PER_LAYER if name.endswith(".failed")
}

# Import time of the package in a fresh interpreter, one set-up component.
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, "src")
t = time.perf_counter()
import tsre
print(time.perf_counter() - t)
"""


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def import_seconds(deadline: float) -> list[float]:
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, capture_output=True, text=True,
            timeout=remaining(deadline),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing tsre from src/ failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_child(workload: str, seed: int, seconds: float, trace: int, tiny: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(raw: dict) -> dict:
    return {
        "reps_per_s": raw["rate"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["import_s"]) + statistics.median(raw["setup_s"]),
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
    }


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> tuple[dict, dict]:
    """(final result object, child's raw result) of one run."""
    deadline = time.monotonic() + DEADLINE_S
    imports = [] if trace else import_seconds(deadline)
    raw = run_child(workload, seed, seconds, trace, tiny, deadline)
    raw["import_s"] = imports
    if trace:
        units = PER_LAYER
        values = {name: raw["layers"].get(name, 0.0) for name in PER_LAYER}
    else:
        units = END_TO_END
        values = end_to_end(raw)
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    return result, raw


def report(workload: str, result: dict, raw: dict) -> None:
    """Human-readable lines printed before the final JSON line."""
    rounds = f" in {raw['rounds']} rounds" if "rounds" in raw else ""
    print(f"# workload {workload}: {raw['units']} {raw['unit']}(s){rounds}; manifest {json.dumps(raw['manifest'])}")
    for name, m in result["metrics"].items():
        computed = " (computed from shapes and file sizes, not measured)" if name in COMPUTED else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{computed}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, note in raw.get("latency", {}).items():
        extra = ", ".join(f"{k[:-2]} {v:.6g} s" for k, v in note.items() if k.startswith("p"))
        correct = f"; {note['ok']} correct" if "ok" in note else ""
        print(f"{name} = {note['median_s']:.6g} s (median of {note['count']}, "
              f"{extra or 'no percentile has 10 samples beyond it'}{correct})")
    for err in raw.get("errors", []):
        print(f"# error: {err}")
    if "trace_file" in raw:
        print(f"# spans written to {raw['trace_file']}")


def self_test() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, raw = measure(workload, 7, 0.5, trace, tiny=True)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics {emitted} != {declared[trace]}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: oracle reported a wrong output")
            if raw.get("perturbation_flagged") is False:
                problems.append(f"{workload} trace={trace}: perturbed theta_hat not flagged")
    for p in problems:
        print(p, file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    # A terminated run still kills and waits for its child (subprocess.run
    # does so when an exception interrupts it).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        result, raw = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        return fail(str(exc))
    report(args.workload, result, raw)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
