"""The package calls the benchmark in perfbench/ makes, at a tiny size.

perfbench/ rebuilds replicates and CLI commands from the package's public
functions and checks them against the harness, the CLI and its own oracle.
These tests run that rebuild on shrunk inputs, so that a package change
which breaks a call the benchmark makes fails here rather than only in a
benchmark run.
"""

import sys
from pathlib import Path

import pytest

from tsre import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.fixture(scope="module")
def bench():
    """perfbench's workload, compose, oracle and spans modules, imported
    without writing bytecode; the perfbench tree must be unchanged after."""
    before = _tree(PERFBENCH)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(PERFBENCH))
        import compose
        import oracle
        import workload
        from spans import Tracer
    yield workload, compose, oracle, Tracer
    assert _tree(PERFBENCH) == before


def test_rebuilt_replicate_matches_the_harness(bench):
    workload, compose, oracle, Tracer = bench
    row = workload.sim_rows("comparators", tiny=True)[0]
    assert sorted(tag for tag, _ in row.jobs) == sorted(harness.METHOD_TAGS)
    # a tsre subset fit, as the large_n workload runs
    row.jobs.append(("tsre", "top:20"))
    seed = 3
    rebuilt = compose.replicate(Tracer(False), row.cfg, row.jobs, seed, row.key, 0)
    spec = harness.ReplicationSpec(target=row.target, reps=1, seed=seed)
    results = harness.run_scenario(
        row.cfg, spec, row_key=row.key, row_id=row.row_id, jobs=row.jobs, threads=1
    )
    for (tag, _), res, out in zip(row.jobs, results, rebuilt.outputs):
        assert res.reps_failed == 0 and out is not None, tag
        assert oracle.pair_matches(out, (res.estimates[0], res.ses[0])), tag
    assert not workload.reference_mismatches(rebuilt, row.jobs)


def test_command_cycle_matches_the_cli(bench, tmp_path):
    workload, compose, oracle, Tracer = bench
    files, gm, std, pheno = workload.file_setup("estimate_file", 0, True, str(tmp_path))
    case = workload.file_case(files, gm, std, pheno)
    out = compose.command_cycle(Tracer(False), files, 0)
    assert workload.file_numbers_ok(case, out["grm"], out["estimate_tsre"])
    assert oracle.pair_matches(out["estimate_ivw"], case.ivw_ref)
    for command, argv in compose.cli_argv(files).items():
        assert case.command_status(command, *workload.run_cli(argv)) == "ok", command
